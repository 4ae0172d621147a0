"""The content of lattice reports, pinned by digest.

Each case runs ``analyze`` or ``check-partition`` on a fixed input and
compares the sha256 of two texts with the digests below: the JSON text of
the report's rank fields (``json.dumps(..., indent=2, sort_keys=True)`` of
the state rank, lattice rows, violation rows, verdict and, for
``check-partition``, the pair rows), and the human output without its
``input:`` line, which names a temporary path. The ranks of these inputs lie
far from the rank cutoff, so the digests do not depend on the BLAS build or
its thread count.
"""

import hashlib
import json

import pytest

from entrank import catalog
from entrank.cli import main
from entrank.statefile import density_payload, pure_payload, write_state_file
from oracles import tensor_pure

RANK_FIELDS = ("state_rank", "lattice", "violations", "verdict", "overall", "pairs")


def _blocks():
    parts = [catalog.haar_pure((2,) * size, seed=40 + size) for size in (3, 4, 5)]
    return tensor_pure(tensor_pure(parts[0], parts[1]), parts[2])


INPUTS = {
    "ghz12": lambda: pure_payload(catalog.ghz(12)),
    "w12": lambda: pure_payload(catalog.w(12)),
    "haar12": lambda: pure_payload(catalog.haar_pure((2,) * 12, seed=31)),
    "blocks12": lambda: pure_payload(_blocks()),
    "dense8": lambda: density_payload(catalog.mixed_of_rank((2,) * 8, seed=32, rank=4)),
}

TWELVE = "1,2,3|4,5,6,7|8,9,10,11,12"
PINS = [
    ("ghz12", ("analyze",),
     "79714e372e1d63e10ecf25bdec1240a92fc4d8264f2eb81e139729cd53bbdf71",
     "58fe47569890b522ead2f46a39429a691b9a6dadeddcd54e3ef45aa76f3c92a7"),
    ("ghz12", ("check-partition", TWELVE),
     "9bc0e85915f414053b90a5b4932fb503fca13085709749409ff32d436990588d",
     "4c979e132db85ca8a760ed084fa16763caed83356470b337e234040fba3a9e4f"),
    ("w12", ("analyze",),
     "79714e372e1d63e10ecf25bdec1240a92fc4d8264f2eb81e139729cd53bbdf71",
     "58fe47569890b522ead2f46a39429a691b9a6dadeddcd54e3ef45aa76f3c92a7"),
    ("w12", ("check-partition", TWELVE),
     "9bc0e85915f414053b90a5b4932fb503fca13085709749409ff32d436990588d",
     "4c979e132db85ca8a760ed084fa16763caed83356470b337e234040fba3a9e4f"),
    ("haar12", ("analyze",),
     "bc4dc0d7f9f32b3f935bbb78899bbf51cdc95bb444c26761c52b6844b3a84bb7",
     "2be323f355ecf777ff31b0aa77b5396ee4d78aa3411cbfb8f1859489f9010fd6"),
    ("haar12", ("check-partition", TWELVE),
     "5e92a0bb5cbf48a82259eaf72428d1de5489954c9cdeb39f59a94e08a58421ef",
     "79dd8c7f8ac6844201479086f187b709916ec4015fe8551431932fbc3a6f896f"),
    ("blocks12", ("analyze",),
     "ea7f4ba0fd264b602ec71a3d39504e427799a451ebd7da720f185cfd29a9bb1a",
     "a0db34c7ee1369107e8ae3c38b06ab5295da8a5f67ffb7be0e8fe3ba3c380a18"),
    ("blocks12", ("check-partition", TWELVE),
     "de369275b6ddfc0cc0c8da1f624299280e87da2ff088d577786d575a0a18b559",
     "9c9bf98ab1f6e25f6e3dd176c961d41e299c635059532cdb6193c30704970c45"),
    ("dense8", ("analyze",),
     "f8aa173191e2a8be2595d19769a7fbf779eee83dbe44d246fb96801b57b38e79",
     "ec16d1ac9f79d2e3f46e7fbe37273bb7d67f9375ddb08fd3922ee799d249ba70"),
    ("dense8", ("check-partition", "1,2|3,4|5,6|7,8"),
     "13a0c7184f9c1739d92c7caad8e08b9de19fc3843d609e0b2aca40eaa3e9608a",
     "982f7c8c945fad2eb8316c6cde0bdc357517ec7121cdabc022dff994a02240af"),
]


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("pins")
    paths = {}
    for name, payload in INPUTS.items():
        paths[name] = root / f"{name}.json"
        write_state_file(paths[name], payload())
    return paths


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "name, argv, json_sha, human_sha", PINS, ids=[f"{p[0]}-{p[1][0]}" for p in PINS]
)
def test_report_content_is_pinned(name, argv, json_sha, human_sha, input_files, capsys):
    command, *rest = argv
    path = str(input_files[name])
    assert main([command, path, *rest, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    fields = {key: report[key] for key in RANK_FIELDS if key in report}
    assert main([command, path, *rest]) == 0
    human = capsys.readouterr().out.splitlines(keepends=True)
    assert human[0] == f"input: {path}\n"
    assert (_sha(json.dumps(fields, indent=2, sort_keys=True)), _sha("".join(human[1:]))) == (
        json_sha,
        human_sha,
    )
