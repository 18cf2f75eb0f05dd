"""Byte pins of every file `olfl run` emits.

Each case runs the CLI into a fresh prefix and hashes every written file by
its suffix. `aggregate.json` is hashed without its `timing` block, which
holds wall times. The digests were recorded before the trial loop became
columnar; the files must stay byte for byte the same.
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
}


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
            data = json.dumps(aggregate, indent=2).encode()
        digests[path[len(prefix) :]] = hashlib.sha256(data).hexdigest()
    return digests


# recorded before the trial loop became columnar
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
    "ftl-greedy-killer": {
        ".aggregate.json": "a8572fef1ab74f6aed9e409c2ae680e327d5a21128027d7b2724b95c67aaedcc",
        ".regret_curve.csv": "f333509cb158992bb20170f5f05ed0f64dcef4b2f03d79fa02ee6366ee736890",
        ".trials.seed3.csv": "cb254088d4e7cc5f929c56e4400b041aa5f63045165098ce8a2dff92e3f04e4c",
        ".trials.seed5.csv": "a5c73b740a05db0f20123e8b1dcdc0e345648610b10f7810bbeb2e5f4c87d090",
    },
    "hedge-exact-killer": {
        ".aggregate.json": "2c2ab63352cd5e698bf714f206c73d7036f7d20a3a6a71023e1620a9f7d8aeeb",
        ".regret_curve.csv": "765e0e09abbb5170c133a5e8716f247508ea1520407d48b02b3db080f6032fc5",
        ".trials.seed3.csv": "3d77e2770b0658ace7d40d0c44e079bb5e79f3faa0afb379d888ca7d8ae479cc",
        ".trials.seed5.csv": "9645ab6daa5a4198a4114fffef8f22a9f8bc9386975a00ffdbc1ffcf1ede5b5d",
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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_emitted_files_match_their_pins(name, tmp_path, capsys):
    assert emitted_digests(CASES[name], str(tmp_path / name), capsys) == PINS[name]
