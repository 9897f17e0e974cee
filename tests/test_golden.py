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
