"""SHA-256 pins of everything the CLI prints and writes on the fixtures.

Each case runs one query on the four fixtures in both formats, human and
``--json``, and hashes the transcript: the arguments, exit code, stdout,
stderr and every file written.  ``elapsed_ms`` and ``bench``'s timings are
the only fields left out.  A pin that moves means an output byte changed.
The usage pins do the same for argparse's help, version and error text.
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
    "temporal": "c6590b1554ba45974aa811f8655a90282d7fc061072db0640da582589ff0cdc2",
    "complete": "2a8f032d059884428ead933011a561f4089b5bca1c415e7e954df617020a5831",
    "antichain --max": "cd4a92ad4ab61e72add72f68e9ceea971166c173761e9238fed2e16e6f5df8e2",
    "antichain --set 0": "31c0ac12b1ff0dac4c38a532853029522124b2537743c6d526b816b4dac7badf",
    "antichain --set 0,1": "26fd664f4c1b4ff505c58b21890cd34db406b665db03863c6d80cc73f24580b8",
    "antichain --check-property": "1562ab974ea5efdd1a96bbc95fd037bad665792100fe7c5a6c91fe61b349b8f8",
    "check --dot out.dot": "f7f49b4301bdf7692815f9412b2e2c3894c82137034379ba5e56ac5ff46eda80",
    "paths --dot out.dot": "6721689a43c98c56155504cf51bf12a7ca905ea70ecd03c7f5488bdcffa7d31a",
    "spanning-tree --dot out.dot": "bcba0400a471674811b2dcf593d61b03a00a9197932e2b202317b4bb31d88e47",
    "complete --dot out.dot": "5be9a39c957fc78f7a9788ffadf73bd332cd6950c17de45d90ba1933b53a1ab3",
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


# What argparse prints at 80 columns: help, version and usage errors, from
# the top-level parser and from a subcommand's.  FILE is diamond.edges.
USAGE_PINS = {
    "--help": "5ef4a506358c215342d66afdab6586d02ae3a4d112f3628fa7a41b6116fd93cb",
    "--version": "52c1cf463d191285722d795ad5f315b9fbd0206a8615cc7e9084c814ef9d3020",
    "check --help": "76fa52558e32a850f97c2c2ce8b3cc28db6778f90357bde6212146d362e7c2b7",
    "indices --help": "b1a420432539c00c711136926a381df1e05a3d5c222d1259fe11a64564fbfc55",
    "paths --help": "3defc2cf0faab6f13aaa38412c34349ea40ffface2505a2664a5f23a6b6600f2",
    "spanning-tree --help": "a542bdbf0e8ccd2372ad11ac93bc7f4fa2129394197293b511f5bbdf10e336e0",
    "complete --help": "a44da3008930cdecd39e9c1ebf42280921a936e476a95a964a7fe2bcb9be6621",
    "antichain --help": "5890164c117d00ad2f7c1cada75850989c639e3aded39833f87416aa8d9fe955",
    "temporal --help": "0139ff464c3f67f6601c5f39b229417250986f6aaad21b8e4bffaa4dc65934ff",
    "gen --help": "ea5c127b94d0cf9e862d3b4c678dccb24deb03f407be551d74c95d13047756d5",
    "bench --help": "6aa937e192c17c412ba636040fd499371bc5246047ae53a7fdda9d666e7b563f",
    "": "f7208f48114b00f6e99e596030d20ed276407f9b5cd0ddc01c2cc12548fdfcf4",
    "chek x": "2a2c5008f20cd96c1be5895c485859247d95a41384dc7e00a07b15303032892f",
    "temporal FILE --dot x": "d2a669d1de2271c919ba4a6f4754bd14fc7968fc42bf6bbbaa0ecd8689d6705c",
    "check FILE extra": "dec400420d2014cac059fe371855273366ab093324192c520faf2cd197f1dcd6",
    "antichain FILE": "e703cd763ae50a13ce58c8eaa9a99f3365c854b45e4ebf2276e2f3844bb23f9d",
    "antichain --max --set 1 FILE": "d7cc1ac68dde6e2df44f67e24fd2a20a3e685b0044c83fd2a349ed28f38e481e",
    "gen --leaves 3": "7709268a7ddd4a3408129aa969f4415a0c11a9bcdb2be8d87bdd65da03cc34b6",
    "check FILE --format xml": "062b80654d4e11a2398ec33cb98caa8979440d954962265a789f4ee47a3448c9",
    # argv that argparse accepts but the option table does not read itself
    "check FILE --form edgelist": "04a2d16d72e3b95ea30e498f1e3cc3d29585915de3c869b9f25cc2627bf0572b",
    "check --format=edgelist FILE": "04a2d16d72e3b95ea30e498f1e3cc3d29585915de3c869b9f25cc2627bf0572b",
    "paths -- FILE": "5ed0bda40d869df46df0c49f977ef89ea57c0d6c4fb8dd70dd53096838fad841",
    "gen --leaves 3 --retics 1 --seed -5": "7dea34f560eaea8d44c6e2540e5a5399af38b23eb599436641e6fee2aa14c4dd",
    "gen --leaves 3 --retics 1 --temporal --temporal":
        "6303cc59b90ef12654d225b948d65f14b9597968f61120abea310bd23808c64a",
    "bench --leaves 3 --retics 1 --repeat=0":
        "50c737ff58a3862db74552ad1bad5d9ba188ec1d0e01b1b5b105fe1b243fb714",
}


@pytest.mark.parametrize("argv", USAGE_PINS, ids=lambda argv: argv or "(none)")
def test_usage_text_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main([str(FIXTURES / "diamond.edges") if a == "FILE" else a
                     for a in argv.split()])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    text = "\n".join([str(code), captured.out, captured.err]).replace(str(FIXTURES), "FIXTURES")
    assert digest(text) == USAGE_PINS[argv], text
