"""Golden output: SHA-256 digests of the CLI's JSON stdout.

Speed-ups of the table and verifier internals must leave every output byte
unchanged.  The digests below pin ``table --format json`` and
``verify all --format json`` on a fixed set of groups; a change that alters
any table entry, field prime, verdict or key order fails here.  The S7
(order 5040) and gn(17,1) (order 4913) digests come from the earlier
implementation, in which groups above 4096 elements had no Cayley table and
multiplied through label-level callbacks.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from groupchar.cli import main

GROUPS = {
    "s3": {"type": "named", "name": "s3"},
    "heis5": {"type": "gn", "p": 5, "n": 1},
    "c3wrc3": {"type": "named", "name": "c3wrc3"},
    "gn(3,2)": {"type": "gn", "p": 3, "n": 2},
    "gn(7,1)": {"type": "gn", "p": 7, "n": 1},
    "cyclic(60)": {"type": "cyclic", "n": 60},
    "d5 x C12": {"type": "product",
                 "factors": [{"type": "named", "name": "d5"},
                             {"type": "cyclic", "n": 12}]},
    "S6": {"type": "perm", "points": 6,
           "generators": [[[1, 2, 3, 4, 5, 6]], [[1, 2]]]},
    "S7": {"type": "perm", "points": 7,
           "generators": [[[1, 2, 3, 4, 5, 6, 7]], [[1, 2]]]},
    "gn(17,1)": {"type": "gn", "p": 17, "n": 1},
    "d4": {"type": "named", "name": "d4"},
    "q8": {"type": "named", "name": "q8"},
    "heis3 x C3": {"type": "product",
                   "factors": [{"type": "named", "name": "heis3"},
                               {"type": "cyclic", "n": 3}]},
    "gn(3,3)": {"type": "gn", "p": 3, "n": 3},
    "gn(23,1)": {"type": "gn", "p": 23, "n": 1},
    "gn(7,2)": {"type": "gn", "p": 7, "n": 2},
    "gn(3,4)": {"type": "gn", "p": 3, "n": 4},
    "PSL(2,7)": {"type": "perm", "points": 7,
                 "generators": [[[1, 2, 3, 4, 5, 6, 7]], [[2, 3], [4, 7]]]},
    "S5": {"type": "perm", "points": 5,
           "generators": [[[1, 2, 3, 4, 5]], [[1, 2]]]},
    "s3 x s3 x q8": {"type": "product",
                     "factors": [{"type": "named", "name": "s3"},
                                 {"type": "named", "name": "s3"},
                                 {"type": "named", "name": "q8"}]},
    "q8 x C6": {"type": "product",
                "factors": [{"type": "named", "name": "q8"}, {"type": "cyclic", "n": 6}]},
    "gn(3,2) x C2": {"type": "product",
                     "factors": [{"type": "gn", "p": 3, "n": 2}, {"type": "cyclic", "n": 2}]},
    "S3 x C97": {"type": "product",
                 "factors": [{"type": "named", "name": "s3"}, {"type": "cyclic", "n": 97}]},
}

DIGESTS = {
    ("s3", "table"):
        "33b0c408a457890d6915f16ca0f01a16b21a23f4528055795e76d8d558680562",
    ("s3", "verify"):
        "0064988377c9cb6e0ccd9dda7461fbcf624210557d880aedc0f5603193c3e106",
    ("heis5", "table"):
        "2bd3ba8c8893bc9e65d7a539773609f84f6bf4eb1515340812996f4fae24354e",
    ("heis5", "verify"):
        "37feac22d3d0daab30f8104e12ac51255c6ad3a47e1f7d3169bf19ed66337aac",
    ("c3wrc3", "table"):
        "569370883e89a891e9ac6d6af841de3dc7e082b018fade42008b76d337c139f2",
    ("c3wrc3", "verify"):
        "848405d1c91b71884e2e08a8ce50798537ee1259e34e0aeb7ed4131004b9c6f8",
    ("gn(3,2)", "table"):
        "4b8d55357838319a0dd6221c116cfc913ef0941f2f207f1541ea5eacb757f362",
    ("gn(3,2)", "verify"):
        "8dcd7a2e47f7eaa4035d51fe649748a4e1ed0e81783830c65bbbc5318632c7b3",
    ("gn(7,1)", "table"):
        "e41ccbe4ab69f361342f5ece16aa826f7adea8d217fc1e2dac9a5f90bbb70b11",
    ("gn(7,1)", "verify"):
        "98f9b3786bde82660d16b88f1b4d0c5707c7aee5ebda3ad7480bf4baa05706f0",
    ("cyclic(60)", "table"):
        "3e4c8804d0761a96f23df883c489e002f83967fde6b173b91650aa55190bf1eb",
    ("cyclic(60)", "verify"):
        "93ddd647dc229e0d4af35b3e7fe1330aae77fe676008c4319aae106d0bf73f62",
    ("d5 x C12", "table"):
        "aacf2f293f8bedf7e9b3a72b3f5031209d2c4d280dce1734aded35590f8c76f6",
    ("d5 x C12", "verify"):
        "b7623c5390a0ade92e4022b8c755135bca9481f8724b67a70dcd15f01c86b309",
    ("S6", "table"):
        "484407fcffeb9bace27510985c29788a71beb61dfcc21d428f68237ac393c2e0",
    ("S6", "verify"):
        "7eb710d6e6262f8da86befdf1fb9c847e43fe2957354bfc154d17d1ab2f60d2b",
    ("S7", "table"):
        "c4e6a0e0edfc04368bf1b110e0ddae122f38285aba5a9833866578f7f51af6d0",
    ("S7", "verify"):
        "6a62721d98ba1b68c07f31b040c58e85eaa05cc5421380e4a00a2ac739442e60",
    ("gn(17,1)", "table"):
        "f91292e5323453133f674bded98c460c0462f1a0b9935d935923573695dc8af6",
    ("d4", "verify"):
        "5edb2068f51dc92c29d68d62fee59d2c05a4d93390e8eb4fb036b19ef446f0c8",
    ("q8", "verify"):
        "27ac159cdc21c511985aa6cc520078898f0c80735a55e14401b50f76ca641e1a",
    ("heis3 x C3", "verify"):
        "6707a3facac0887cd1b75090f490e9735ac0488a735c47d18d516511bb4e6b77",
    # mixed exponents: q8 x C6 (exponent 12) has one nonlinear centre, of
    # exponent 6, and gn(3,2) x C2 (exponent 6) four with [Z,G] of order 3,
    # so thm1.1 embeds the values of pi(Z), the image of Z in G/[Z,G], at the
    # exponents of Z and G; taken before thm1.1 read Irr*(Z) off pi(Z)
    ("q8 x C6", "verify"):
        "c102d860913e5f28a0dde48dcd40d281898994cd60784501aa2583bd25b9996e",
    ("gn(3,2) x C2", "verify"):
        "6de3abf06f4d270cfe8372ef7247789373626521fd015cc3191b80b6d77a9fcd",
    # 315 classes: the first class matrix splits the whole 315-dimensional
    # space at once
    ("gn(3,3)", "table"):
        "ebbcc90a084ce6c407c94e9c1bccdcc7acc552a6aa667a9a21c134d0ce5044cd",
    # groups that are not nilpotent, so the split meets eigenvalues of
    # several multiplicities: PSL(2,7) (6 classes), S5 and s3 x s3 x q8
    # (45 classes)
    ("PSL(2,7)", "table"):
        "d2a845ccbe61ee7b8c9e2f52217857e2d53660eefb13bad00609b2e48642a655",
    ("S5", "table"):
        "f57b3a6522e9a89158352c51bf77a2ba0b39fd6a8e5c1eb56f7d62d4c781fbb8",
    ("s3 x s3 x q8", "table"):
        "7a3fb56e71746fe9f25c71b0ea4182f38fe78f62219b599c3f475bf0e7b27eb6",
    # k = 291 and q = 1,747: q - 1 > max(k, 256), so the split's first round
    # runs Krylov, where the groups above (but S7, q = 421, and PSL(2,7),
    # q = 337) take the transform over F_q^*; taken before that transform
    ("S3 x C97", "table"):
        "0dc1ac043b10a969c20a9cf9d855726f5c82e7883ca3118b4ae620992766fec0",
}

# Tables with 551, 679 and 2,403 classes, run by ``pytest -m slow``: each
# peaks above 500 MB (gn(3,4) at about 1.4 GB), and the first two took over
# half a minute before the spectral split.  The ``verify all`` digest of
# gn(23,1) predates the whole-table verifier passes, the gn(3,4) table
# digest the lockstep split, and the ``verify all`` digests of gn(7,2) and
# gn(3,4) the verifier on class masks.
SLOW_DIGESTS = {
    ("gn(23,1)", "table"):
        "dcbc294b2dccca4b442a84fe8c5fe3085988d465f2420ed2bcf5330e3bb89f99",
    ("gn(23,1)", "verify"):
        "261b47722486b9ab32abaffa7aa9aede9077b4bf1c76cdebb3b12e986cdcdcf0",
    ("gn(7,2)", "table"):
        "e6a3114aee0101a1a40fce1e9e04e7f0d493fbea7b8dacc0dc214f8ad52e4c81",
    ("gn(3,4)", "table"):
        "a33fc53203f35161d453bcf55d0b8881e932eb99ac25622b01673bd3e906e686",
    ("gn(7,2)", "verify"):
        "4a9bad78f322b65e2f14e24320176de9a11a8fe7af21a1916fc607c929c56ab0",
    ("gn(3,4)", "verify"):
        "82bec934e96290e0195b7e656db9d358ad68e60189076e441e830d14ecbceb55",
}

VERBS = {"table": ("table",), "verify": ("verify", "all")}


@pytest.mark.parametrize("name, verb", sorted(DIGESTS))
def test_json_stdout_matches_golden_digest(name, verb, capsys):
    code = main([*VERBS[verb], "--group", json.dumps(GROUPS[name]),
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[(name, verb)]


@pytest.mark.slow
@pytest.mark.parametrize("name, verb", sorted(SLOW_DIGESTS))
def test_large_table_matches_golden_digest(name, verb, capsys):
    code = main([*VERBS[verb], "--group", json.dumps(GROUPS[name]),
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SLOW_DIGESTS[(name, verb)]


# Text renderings: ``table`` (text format) and ``table --decimal``, taken
# before the table output rendered each distinct value once.
TEXT_GROUPS = {
    "s3": GROUPS["s3"],
    "heis3": {"type": "named", "name": "heis3"},
    "cyclic(60)": GROUPS["cyclic(60)"],
    "d5 x C12": GROUPS["d5 x C12"],
}

TEXT_DIGESTS = {
    ("s3", "text"):
        "e1e69279abeb1b8595d1352f3999065578c39cc784092018a24c9e9a731ec20e",
    ("s3", "decimal"):
        "b31f015dd8bf36e465d1a0d8eba4984b445633a4ad9dd54e3eb640098bcd97cc",
    ("heis3", "text"):
        "34da5dea2d4973d2ccc58306c82ba27ba7e4dda163d660ad68e1b7a9bdc75b57",
    ("heis3", "decimal"):
        "cd988dc84650249a649c171c9379c854c0e2f8fc7613ab88902d60de495f6aba",
    ("cyclic(60)", "text"):
        "45bc84cc480e79b4150410d3ac1be15958375d47e8cbde12f99b84a160cccbbf",
    ("cyclic(60)", "decimal"):
        "23f0f56a392a58c58c7d4a26a1a1b365f11f1a5bb457238485b5cb2cf904bd9f",
    ("d5 x C12", "text"):
        "99e0c9573a2f4aaba5d6c3a77e2cfa1fafa46fac139181745a87b2d89d6ba2de",
    ("d5 x C12", "decimal"):
        "6466497751a9c403d3c012f700282599e9d3f6df8deb8043d3c8822872a16d2d",
}

TEXT_FLAGS = {"text": (), "decimal": ("--decimal",)}


@pytest.mark.parametrize("name, form", sorted(TEXT_DIGESTS))
def test_text_stdout_matches_golden_digest(name, form, capsys):
    code = main(["table", "--group", json.dumps(TEXT_GROUPS[name]),
                 *TEXT_FLAGS[form]])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TEXT_DIGESTS[(name, form)]


# Text-format ``verify all``, which prints every check's label, so the
# witnesses and the ``describe()`` names of the centres are pinned too;
# taken before the verifier read class masks.
TEXT_VERIFY_DIGESTS = {
    "gn(3,2)": "b76a247a5d56150bf911e36d0504a25928b016755366108880c6bb2233f0431e",
    "gn(7,1)": "a48465f24820fb1ff9b0934686f4d782003795241a862d2afd0c03c523e56f09",
}


@pytest.mark.parametrize("name", sorted(TEXT_VERIFY_DIGESTS))
def test_verify_text_matches_golden_digest(name, capsys):
    code = main(["verify", "all", "--group", json.dumps(GROUPS[name])])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TEXT_VERIFY_DIGESTS[name]
