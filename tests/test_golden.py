"""Byte-identity of the command-line outputs at a fixed seed.

Every output file depends on the order in which the run consumes its random
numbers, so a refactor that keeps behaviour must keep these bytes. The
expected values were recorded from the code as it stood; a change that means
to alter the simulator's output must say so and record them again.
"""
import hashlib
import json

import pytest

from colourgame.cli import main

DEFAULT_CONFIG_TEXT = """\
{
  "dec": 0.2,
  "inc": 0.15,
  "inh": 0.05,
  "initial_score": 0.5,
  "min_separation": 100.0,
  "noise_std": 3.0,
  "num_interactions": 1000,
  "objects_per_scene": 3,
  "out_dir": "out",
  "palette": [
    [
      255,
      0,
      0
    ],
    [
      0,
      255,
      0
    ],
    [
      0,
      0,
      255
    ],
    [
      255,
      255,
      0
    ],
    [
      255,
      0,
      255
    ],
    [
      0,
      255,
      255
    ]
  ],
  "palette_size": 6,
  "parallel": 1,
  "population_size": 5,
  "random_palette": false,
  "runs": 1,
  "seed": 0,
  "series_interval": 1,
  "shift_rate": 0.05,
  "snapshot_agent": "all",
  "snapshot_points": [
    10,
    20,
    40,
    100,
    250
  ],
  "window": 50
}
"""

BATCH = {"runs": 2, "num_interactions": 300, "seed": 0}

# Config entries each case adds to BATCH. At noise 200 with every object in
# every scene, clamped channels make exact twin observations: the high-noise
# case plays 16 degenerate aborts and 151 wrong-referent games of its 600.
# The one-run case takes the aggregate branch where a single run aggregates
# to itself, with a series row every seventh game over twenty agents.
# At zero noise every agent sees the palette colours themselves, so distances
# tie exactly: in 14 of the zero-noise case's 2,173 conceptualise calls an
# other object lies exactly as far from the closest prototype as the topic
# (which `<=` rejects), and 4 of its 1,887 interpret calls end in a tie. At
# noise 3 neither ever happens. Over 21 agents, `rng.sample(population, 2)`
# takes its set branch rather than its pool branch; the pop-30 case plays
# 1,500 games there with a row every tenth. With a full initial score, heavy
# inhibition and a harsh punishment, a construction dies after two failures
# or four inhibitions: the harsh case prunes 114 constructions in its 600
# games, against 26 at the default scores. With one object per scene the
# closest category always discriminates and every heard word points at the
# only object, so each agent keeps a single category and both runs end on one
# word. Steps of seven decimals leave scores whose 12-decimal rounding moves
# them: the fine-scores case rounds 187 distinct scores, and 321 of its 1,750
# score updates store a value other than the one computed.
CASES = {
    "fixed_palette": {"random_palette": False},
    "random_palette": {"random_palette": True},
    "high_noise": {"noise_std": 200, "objects_per_scene": 6},
    "one_run_pop20": {
        "runs": 1,
        "population_size": 20,
        "series_interval": 7,
        "snapshot_agent": 3,
    },
    "zero_noise": {"noise_std": 0, "num_interactions": 1000},
    "pop30": {
        "runs": 1,
        "population_size": 30,
        "num_interactions": 1500,
        "series_interval": 10,
    },
    "harsh_scores": {"inh": 0.3, "dec": 0.5, "initial_score": 1.0},
    "one_object": {"objects_per_scene": 1},
    "fine_scores": {"inc": 0.1234567, "inh": 0.0345678, "dec": 0.2345678},
}

# SHA-256 of every file a batch writes, and of what it prints; config.json
# is hashed without its out_dir line, which names the test's directory.
GOLDEN_DIGESTS = {
    "fixed_palette": {
        "aggregate.csv": "ce27743fe4e670ef18641749d63bc85c66bab1a61917cc5ee8622fdd58d444b8",
        "config.json": "5cb8e8c9194697f9689fc77a223c2de91715f306296a8eaacfa910a077eece77",
        "run-0/series.csv": "8bd807826f3a112c9313f8fab659631501eb49ea5be00c8f8f310f0821f4ad74",
        "run-0/snapshots.html": "fc3c60d063bf11a37a08947d14221f7190d477326de764b57b9a0092ae41ba4a",
        "run-0/snapshots.json": "3ae6ddb5e1552ecd83ac9cd1652f095dad11cd1add7ecebeef6585fdc75b8f0f",
        "run-1/series.csv": "22d36bfcfc649a15462ed6e137db0b23e6f788f672af215a9f8b247f028d3d0b",
        "run-1/snapshots.html": "d96eeeff6a14def2ab93ce0e9000f95146af144d6f70f9c11edaf3aa52e4161b",
        "run-1/snapshots.json": "a6b5f113271a262f8aa48d8980a3a028e20b85c356b7c0fa37e70d78813596bc",
        "stdout": "53812b4196776c1e9be21f63b3a0e860bbb8689d21eb47e68263f31e69afefa0",
    },
    "random_palette": {
        "aggregate.csv": "3fbf9480fbecd74bfc8c7fc555943bfe7203f425fdf8458e27bf34148215a5cd",
        "config.json": "5837d59c61f6786afd74561306df56ad31007d888ee6219a0f8df48367d072a8",
        "run-0/series.csv": "32796aaeebde161931ca5dfbfc3c1d8a39affca585ab257f568817782a4c5e10",
        "run-0/snapshots.html": "b6bd13b49a4c63b27b4df2ceed15f22bcf39cbd0bb2fae473044182e3a6fc706",
        "run-0/snapshots.json": "67c5653d969d3c915e5d30b231cbe2b6db7eb830b7a1b01bd647956a31b0cc36",
        "run-1/series.csv": "250a8bd39f5592b10657eae7ad122e1e3282e37348b3f087fccebefe3b11a091",
        "run-1/snapshots.html": "aed5731b59c75334405cdbb0b8ad8d6983ab9400698226bd49b285813fd31929",
        "run-1/snapshots.json": "9b81ca323b361e36f20fda6505f8754c6e26179a41a4675e82402089d4e6a1c0",
        "stdout": "3b00077760026bbc155e2dbc8c8d192ef1949f3e550bc7fef2ee9ac657b8f0d7",
    },
    "high_noise": {
        "aggregate.csv": "0a32a3320e092d3d475744647ea19f14da444e6d43bae47598b4dab6f8672d2e",
        "config.json": "8bbbdaa5d895cb7c56b33f4902905730ff956522291238b16a1edef1597393b8",
        "run-0/series.csv": "f38e2c2ad3d2ad1436c6f1cf073a549cff3628b3482b8027062d92a78b953ef0",
        "run-0/snapshots.html": "7250ad1609f4715734022ff1f919f10f8154ddcbd12726e1029fbd2b5c3e1f4f",
        "run-0/snapshots.json": "a16323b58b7f5f04662426b64f537b03d627c068f14a89176eede6ba4c22ee2f",
        "run-1/series.csv": "113a8eeb5ebd02336290c4887b4c0f47f6c3f91f5d257ed4a725252cc81d592d",
        "run-1/snapshots.html": "4315dd25d604257dc920cbcb9f43acca152b878713aec7c84ba44bf945339cf1",
        "run-1/snapshots.json": "740bafd68d229e1af739bf3b8dd4bbe7c5a3976ec85f76442c1734fb8a7ac82d",
        "stdout": "e829f5286ea51a002ff45cd3c26938a05d1cc80bf58c79bc1644b1a67f850f6c",
    },
    "one_run_pop20": {
        "aggregate.csv": "bba68896ba96e0603ff6c13dd543813afedc3f9247bd40825651822b319d3023",
        "config.json": "6b90034586bb08cf784cb51f5f0dd9c3bd54d572fe7a9baa0ac42c424988df2d",
        "run-0/series.csv": "b9864ddd82b4158f56a06af3db334779459abeaefd5b49df0cbec9eeee5e6a17",
        "run-0/snapshots.html": "1523d108d4462ab4bd2e76bbfcadcc90c9dd10b76dbf2cc9e21088909bbd98fd",
        "run-0/snapshots.json": "27d789a29b3b09a2c1208813fad9ba227795cde2ff9b17ceb0c5d0dd4b51b8a9",
        "stdout": "fc0112e2403fa2ad2374346c6403e812dfb8ad36f881f031a893fd5fcf2599a3",
    },
    "zero_noise": {
        "aggregate.csv": "c698723dc6935aef074554185b4c3dba8a5bd35a2a79c2ce96700aa45dae6924",
        "config.json": "b589c0e110b716d61dea8b305ae1406bf51077f0e56e2b2f164f07771cddc3b5",
        "run-0/series.csv": "913b0136286dc1c72ff5daaa4c27e857faee4183ef32040bf2bd5358b42fff84",
        "run-0/snapshots.html": "f586e37cb7b4a2e635bccd728b2f1a5d2d74b93dda5353264c0ff894cfc2a7b5",
        "run-0/snapshots.json": "822b52ea92d2799f8532e652ce6d3cfba52f88659edfb32d08ebcf7c9625fafe",
        "run-1/series.csv": "859b8fd7ee7e148dc36dc32a4419e19e0c4b58ada78a33ae1cce4cea761dd504",
        "run-1/snapshots.html": "5bf72c943b57c58b39fedf2886801563595aaf2352bfb88d52f59a3fcd6f046c",
        "run-1/snapshots.json": "437146b1800ac5547bc01e439b4cb3b8f366c6dc753f9ff1869b5804c01d8efe",
        "stdout": "271e3e97b7e4e95108c48baec004867e9b58d81d97ea7b609a022351ada05318",
    },
    "pop30": {
        "aggregate.csv": "b3416a2259903f72de48515206a401d7d10ad28e23141b83bc079b983184dabd",
        "config.json": "ff1fc083a396d86ebe644219d54d19c125459fe0edb6f81422f077f89296ba30",
        "run-0/series.csv": "221458303e0dd112ffd2561f90cbf9989d28cba96d0ff2a9be39696fdbf453fc",
        "run-0/snapshots.html": "4b78f4103b99b27f2bfe128275233660dd4c4ccbaa7d74b18cffb5d6937485c2",
        "run-0/snapshots.json": "7d2409ec056218036b22275703eb86734b99863bd66883ebc34475785efc0f7b",
        "stdout": "969a014eea53839df182e2bc47e2094e01e50e8e1899c3a6ccb995016c51e468",
    },
    "harsh_scores": {
        "aggregate.csv": "9eb452f2da8781acff410224dc7cf96fcd6a4fbbd474d40f48f8d9e006a8e835",
        "config.json": "4863b500c614c18c2d29a0bce1ac43ad3ab91734375b3d760747e8d40268684a",
        "run-0/series.csv": "e594952a29c74c1cd2dc6a110bd31cadcec27f5eada7415680c8a9e14be4b2a6",
        "run-0/snapshots.html": "574f19e0087109f7e5ca1978daae0c189e0ced51460be0b3d1732efb42357ab8",
        "run-0/snapshots.json": "54c8832345ce46c669422c27f44a75a4c632499aebd7d077f8da0b373a5a14f0",
        "run-1/series.csv": "baa2620744507eac43a8e89d9e928e026c5d45dcf1cc189b6be21ed5de2491e8",
        "run-1/snapshots.html": "7aaf326ca95db131ca791822408177bf2e36246b05f768a964cd12c0bb57214d",
        "run-1/snapshots.json": "0be27a85948848d8fc93f011acabca619f222adb77616d8e403e8f447c8e37d5",
        "stdout": "01c4ff927d5723724775bc388bac05c9029a25ef45d82712fb4a65295f94ad49",
    },
    "one_object": {
        "aggregate.csv": "6f0df8e21c12ba0334170d89815c69237ef7ee083fe99acb2457a3316c27773f",
        "config.json": "9091c421b6e083a7dc1507b9e6f364fde248bb4224dd50f4ecd44758a297f948",
        "run-0/series.csv": "fa1182d208359f8ee127e35c3fb56f2e3e398679f086052f0cbb00ed4345d04a",
        "run-0/snapshots.html": "f23e6ad9971037abbe94728cb2bb18c878f5791f5079843a39c9366139eeb15d",
        "run-0/snapshots.json": "d60bc192b93d38f2cb4e91cef0c625271cfd4435c19462049d4289f9eb958f84",
        "run-1/series.csv": "756eb5d29436544bbc582212cb0d7189d0cf4c53d78929dc8e2befb00d08f21e",
        "run-1/snapshots.html": "af4b38a0f5fb3fd8ad8d4d761e3bee17241716fcd76cfdb97f10aa18a16a97d7",
        "run-1/snapshots.json": "be93e132c5fd87e970ff43f6eff7fd5bbc7fb1c0bb43cbca97a4b41f7a5b1673",
        "stdout": "35e76f236b7408a77eb5f8d223510d92d8823c5e3bb58591e471ac28386d1859",
    },
    "fine_scores": {
        "aggregate.csv": "fe21ef784928692072a0a37d46fb87517cc0c55aa20ea6126ac1082571d00bf7",
        "config.json": "fc8dc3e50e92f0a6e311ce84582ea46e068f8dda87cac8d99dfb00b9dcd79fcb",
        "run-0/series.csv": "76648a5a4c4f7d864773cc1c9c4cc08c6ecf7edd25f46db9cdb7735af97258a5",
        "run-0/snapshots.html": "75303ea605435f8ee2e4d21da6e74036c89366fab2019e4738d3a0694d9b8ca5",
        "run-0/snapshots.json": "715116ba9c4accab5fa51dab079178e7005c969e3cce3c05433b984fc4d75e65",
        "run-1/series.csv": "f9d39f337d5cdd04413c9bd7d54569311abc0e369a74724b3e680a092de6b10e",
        "run-1/snapshots.html": "d9f20eda48d6805c6146a977fdc4089421a6eb1e6b3a316db3310b125c3971c8",
        "run-1/snapshots.json": "a1b093b1e1664fe27c71045d33743d56480aefd308bba8c5fa2d3e543a089774",
        "stdout": "e5ea5617fbfcbed1ece2476f72184f89135f656f5d64863a4dc081778f2a9221",
    },
}


def test_print_default_config_is_byte_identical(capsys):
    assert main(["print-default-config"]) == 0
    assert capsys.readouterr().out == DEFAULT_CONFIG_TEXT


def batch_digests(tmp_path, capsys, entries: dict) -> dict:
    config_file = tmp_path / "batch.json"
    config_file.write_text(json.dumps(entries))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file), "--out-dir", str(out)]) == 0
    digests = {"stdout": capsys.readouterr().out.encode()}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digests[path.relative_to(out).as_posix()] = path.read_bytes()
    digests["config.json"] = b"".join(
        line
        for line in digests["config.json"].splitlines(keepends=True)
        if not line.startswith(b'  "out_dir": ')
    )
    return {name: hashlib.sha256(data).hexdigest() for name, data in digests.items()}


@pytest.mark.parametrize("case", sorted(GOLDEN_DIGESTS))
def test_batch_outputs_are_byte_identical(tmp_path, capsys, case):
    entries = {**BATCH, **CASES[case]}
    assert batch_digests(tmp_path, capsys, entries) == GOLDEN_DIGESTS[case]
