"""Golden outputs: the sha256 of stdout and the exit code of fixed CLI runs.

Any change to a seed, a rule, a witness or the JSON layout of these runs
shows here, so a refactor must leave them all unchanged.  A deliberate output
change updates the table and says why in CHANGES.md.
"""

import hashlib

import pytest

from compseq.cli import main

V0, V1 = 106276436867, 35256392432  # the Vsemirnov pair for (1, 1)

GOLDEN = [
    # One construction per strategy tag, and a pair that is not constructible.
    ("construct -a 0 -b 7", 0, "27053041b74230c5cf5dfb47fe113a75c520551e0ede61e9488d2a022f28c3c9"),
    ("construct -a 4 -b -4", 0, "7800041dc77a5f71e1d62b20c2bb666130aa7113a34890baf9278a1f22746502"),
    ("construct -a 5 -b 2", 0, "f005974652ff7bf3ebf7d3c3167e26dab0cf1c24fd5a7e364b4b980fe9ecec10"),
    ("construct -a 3 -b 4", 0, "c2e49e663a8b70a9231e02169431134a68b615192075a031b0c55f8fb44e790e"),
    ("construct -a 1 -b 3", 0, "a12a038c3f04c544a639a67554c77741265d7e43dfa26be493b6565372827eba"),
    ("construct -a 3 -b 3", 0, "79751af3d549e1f5d00eb2a7676dae76187659f134cee0a2ba63b468f2e63b04"),
    ("construct -a 2 -b 5", 0, "7a31b001714ec930ee655a0ae2822a8f953dcd8a512619f6118f69416815da5d"),
    ("construct -a 6 -b 1", 0, "cd258a2061027b2fb25929662c88c37e7b577f359c4dc38a69f431590d71bdf3"),
    ("construct -a -9 -b -1", 0, "fe4c47d375826dd9dab80b9fbf5f5ce1b3bc4ffe37e5c5516eba8e933b38e60b"),
    ("construct -a 5 -b 1", 0, "6a979571b120a14701707ffd89dfa6d3de7a3f1fd47eaf32095482b64760d49f"),
    ("construct -a -1 -b -1", 0, "627a76b4bb69c3866d675edb10f5bc6951932ae4473f2f18d7d578c37f219400"),
    ("construct -a 1 -b -1", 0, "526c3c185dcb87f714463fba4a5ee06a4ec22b36f34fbc94d1c64628a5b8d64f"),
    ("construct -a 1 -b 1", 0, "b7bfefd822370d273f9c90ea2e664c07c1271faefbfc07b4a95226e97464ac16"),
    ("construct -a -1 -b 1", 0, "1825c907bd53aa8e08d0d41d481ef59aa1a663ee2b44fd851c9373cd6f577306"),
    ("construct -a 2 -b -1", 2, "6790e794f82eaaccbff3edcc4ab6924fa4a5a8abaa6c43dce91200f10661e341"),
    # Covering primes past trial division, and |a| = 2^61 - 1.
    ("construct -a 999999999989 -b 1", 0, "3b48726e10a33376f89eae9cb0acc9b668ce0f070c7f3bae4d41a87411b957b7"),
    ("construct -a 999999999989 -b -1", 0, "87250be5452becfa277773e5976dfaaf7d6a2c30532a5264efd18cf302f4bc1c"),
    ("construct -a 2305843009213693951 -b -1", 0, "8ecdf56862e574748c89a05d2379d6c56ca2b187f9418871172358301c549263"),
    # Hintless, with terms past 2048 bits: the decimal_texts output path.
    (f"verify -a 1 -b 1 --x0 {V0} --x1 {V1} --terms 3000", 0, "50dc50735947ab423bc6d5d47c81de636af14d6634c0d3ac30bfbcb9f17fef51"),
    ("table", 0, "4a5c552b3ac159322b4694b79db3d70dd63b25f7f269e109e294d8b9f9bf7005"),
    ("triples -a 8 -b 1", 0, "1c6efdedd19e18e155e1e03a7f37c5816bc35bff072d4c567d8b1e737ea916b6"),
    ("lucas -a 3 -b -1 -n 24", 0, "419293c6c45d3a9e8eec7f39b1249382bd48f55f5d8d322d986314004b5917f0"),
    ("conjecture", 0, "b1e2dd7f5d909dc7364fe491c571a658c35288e555c813c6e0fbe7191fadf180"),
]


@pytest.mark.parametrize("command, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_json_output_is_unchanged(capsys, command, code, digest):
    assert main(command.split() + ["--json"]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
