"""SHA-256 pins of everything the CLI prints and writes on the fixtures.

Each case runs one query on the four fixtures in both formats, human and
``--json``, and hashes the transcript: the arguments, exit code, stdout,
stderr and every file written.  ``elapsed_ms`` and ``bench``'s timings are
the only fields left out.  A pin that moves means an output byte changed.
"""

import hashlib
import re

import pytest

from tbnet.cli import main

from conftest import FIXTURES

FILES = [name + ext for name in ("diamond", "deviation_one", "killer", "temporal_nontb")
         for ext in (".edges", ".nwk")]
TIMING = re.compile(r'\n *"(elapsed_ms|generate_ms|best_ms|mean_ms)": [0-9.e+-]+,'
                    r'|\n *"runs_ms": \[[^\]]*\],'
                    r'|generate [0-9.]+ ms, indices best [0-9.]+ ms')

PINS = {
    "check": "fc6f7d983f457e88ccd61e49730905cad5ac540cffe3652b4eee05e1b637d7a7",
    "indices": "7e7304863c8ef4b6a13ed53693139dcd282acb7fe67b5b8ad791e2994b6df50b",
    "paths": "e90faa4675cf0a7f92c8a5433e5254d8f112152de4a61f1adfab402ee95bef97",
    "spanning-tree": "329cf112ae19e6160a6bab2cb94b22088037ca910b992d5fa51f4186fdb3b525",
    "temporal": "6987503ddd67978dd97b5b4da4f5095eaa86c8cf952255269f04e485b3702276",
    "complete": "2a8f032d059884428ead933011a561f4089b5bca1c415e7e954df617020a5831",
    "antichain --max": "cd4a92ad4ab61e72add72f68e9ceea971166c173761e9238fed2e16e6f5df8e2",
    "antichain --set 0": "ac7336e85cb970ac3276e84485011d59da57253475989e5a0826e73463a360b9",
    "antichain --set 0,1": "410188ee2578438815b25e77c5060606e910ff4f84d09b97b20fa2dbaa0d193b",
    "antichain --check-property": "1562ab974ea5efdd1a96bbc95fd037bad665792100fe7c5a6c91fe61b349b8f8",
    "check --dot out.dot": "d2fedc53f8ce05ccd79df2fe63f1c53ce1a43879c15135c1722db9e65e1f7025",
    "paths --dot out.dot": "f2bbc39f51ad02de515b54a93763b876fb01562f84a84b96024b61b771ac324e",
    "spanning-tree --dot out.dot": "b17886e6d07cc3424067d8cb52094176424871110ef62128434bf86a97e3cd82",
    "complete --dot out.dot": "4377eefe15ab5dd0651f6be95bf9c4b9b1556f5fc9d8fd0c24860beb5adaf36a",
    "complete --out out.nwk": "491054ec08861aa54cbbb9a16d7497d85cbd605b0a73c6ee1737a0f69a5167c3",
    "complete --out out.edges": "9c9559e0598aafcd0f2f3ccaea876493384f14f20e528519a2f038c9dfe5a1bd",
}
GEN_PINS = {
    "gen --leaves 6 --retics 3 --seed 2": "fb35f6711488104994ac4834be422c45e50e3866194c74b5f94b8df518d37482",
    "gen --leaves 5 --retics 2 --temporal": "779812bb0fc22fccfd8625955149a3553d873d01b019b68d42c32c7549594476",
    "gen --leaves 40 --retics 30 --seed 7 --out out.nwk": "e726d2e0eb1f4c84418739493841529fd9b940af7a571bb7d141396baae59df4",
    "gen --leaves 40 --retics 30 --seed 7 --out out.edges": "ea5ce00b685c97b3f0ab76621b616f1c0ed683d583c12171843b4c6e3d439f0a",
    "gen --leaves 1 --retics 1": "021c93d15c6ba3ae3a0f4329d704f152474fa6c4b53cd30342c730481c05b479",
    "bench --leaves 8 --retics 2 --repeat 2": "5cd5780f91cefcfe23c6da8ada5696c44471ec427dae760d5ea29fa02c31e4a4",
}


def transcript(capsys, tmp_path, argv: list[str]) -> str:
    parts = []
    for json_flag in ([], ["--json"]):
        code = main(argv + json_flag)
        captured = capsys.readouterr()
        parts += [" ".join(argv + json_flag), str(code), captured.out, captured.err]
        for written in sorted(tmp_path.iterdir()):
            parts += [written.name, written.read_text()]
            written.unlink()
    return TIMING.sub("", "\n".join(parts))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("query", PINS)
def test_query_output_is_pinned(capsys, monkeypatch, tmp_path, query):
    monkeypatch.chdir(tmp_path)
    head, *options = query.split()
    text = "".join(transcript(capsys, tmp_path, [head, str(FIXTURES / name), *options])
                   .replace(str(FIXTURES), "FIXTURES") for name in FILES)
    assert digest(text) == PINS[query]


@pytest.mark.parametrize("argv", GEN_PINS)
def test_generated_output_is_pinned(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    assert digest(transcript(capsys, tmp_path, argv.split())) == GEN_PINS[argv]
