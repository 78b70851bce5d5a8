"""The artifacts of the five built-in scenarios, pinned by digest.

Each built-in runs into a fresh directory, and every file it writes is
hashed with sha256.  The manifest is hashed after dropping the two fields
that may differ between identical runs: ``wall_time_s`` and the scenario's
``outputs`` directory.  The digest of a scenario is the sha256 of its
sorted ``name sha256`` lines, so a change that claims to keep the built-ins
byte-identical is checked by this test rather than by hand.  A change meant
to alter an artifact must recompute the digest and say why.
"""

import dataclasses
import hashlib
import json

import pytest

from mdelab import get_scenario, run_scenario

DIGESTS = {
    "splitting-dirac": "ab64c9354f466fc480bb1d36120c2c6d6640ee9cf1423ec48c104c11b917f92f",
    "splitting-uniform": "49e0c9b8f8065b5740ca53eb09067d572dd211252a6384f075140f60724d8a26",
    "binomial": "f9751cc6f3513309b0bae2ae0563816f6689a8a79226f8443e71cafbc21468ca",
    "uniform-fiber": "d70aab1797cabd72c408a3eba15c3f11107d89810049cd6ef3738cd65068da2c",
    "peano": "638f501c965639b0cd0601fe10aff32c12a76b01c5b6c9897ed09bb4e78cfb4d",
}


def artifact_digest(name: str, out_dir) -> str:
    run_scenario(dataclasses.replace(get_scenario(name), outputs=str(out_dir)))
    lines = []
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            del manifest["wall_time_s"]
            del manifest["scenario"]["outputs"]
            data = json.dumps(manifest, sort_keys=True).encode()
        lines.append(f"{path.name} {hashlib.sha256(data).hexdigest()}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_builtin_artifacts_are_byte_identical_to_the_pinned_digest(name, tmp_path):
    assert artifact_digest(name, tmp_path) == DIGESTS[name]
