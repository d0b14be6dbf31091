"""Golden outputs: the sha256 of stdout and the exit code of fixed CLI runs.

Any change to a seed, a rule, a witness, the JSON layout or the text
rendering of these runs shows here, so a refactor must leave them all
unchanged.  A deliberate output change updates the table and says why in
CHANGES.md.
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
    # Hintless, to 3000 terms: the longest report here.  Every term is
    # claimed by one of the 17 rules discovered at L = 720.
    (f"verify -a 1 -b 1 --x0 {V0} --x1 {V1} --terms 3000", 0, "b51bec2355112c36e9838a06b8421929a7e888222880a675536eebcce17eb92f"),
    # Hintless: the rules discovered at L = 4, Rule(1174571, 0, 2),
    # Rule(3, 1, 4) and Rule(17, 3, 4), claim every term.
    ("verify -a 1174571 -b 1 --x0 25840562 --x1 75172545 --terms 102", 0, "853e434c24b8b3e8c23efaa888269cd25a62d68992a0d09d37092eed953e3001"),
    # Hintless, with Miller-Rabin witnesses at n = 0, 2, 4, 6: x0 = 1000003 *
    # 1000033 and x_n = x_{n-2}, so their common factor is the whole term.
    ("verify -a 0 -b 1 --x0 1000036000099 --x1 15 --terms 6", 0, "8693840dff8f6b61d1a11ee1f862f602c3fd62a92a78f836a166270c7261ddde"),
    ("table", 0, "4a5c552b3ac159322b4694b79db3d70dd63b25f7f269e109e294d8b9f9bf7005"),
    ("triples -a 8 -b 1", 0, "1c6efdedd19e18e155e1e03a7f37c5816bc35bff072d4c567d8b1e737ea916b6"),
    ("lucas -a 3 -b -1 -n 24", 0, "419293c6c45d3a9e8eec7f39b1249382bd48f55f5d8d322d986314004b5917f0"),
    ("conjecture", 0, "b1e2dd7f5d909dc7364fe491c571a658c35288e555c813c6e0fbe7191fadf180"),
]


@pytest.mark.parametrize("command, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_json_output_is_unchanged(capsys, command, code, digest):
    assert main(command.split() + ["--json"]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# Without --json: the text rendering, which gives the certificates by count
# and every other record.
GOLDEN_TEXT = [
    ("construct -a -9 -b -1", 0, "9dc629c53658a9af86c49cf8dcaaa8083f6c6834e27bf360ba441958704d9d02"),
    ("construct -a 8 -b 1", 0, "d2cd06dd64a6b9bd17112f39f0e6dddfa7a71365dc69895483ea3edef3c67834"),
    ("construct -a 5 -b 1", 0, "58a5623faf43159062ca8f08d1de4096d5a2643fe388c2941d5142e2a86b8715"),
    ("construct -a 999999999989 -b 1", 0, "9226cd96051bc7d88c5748d0143435d4d286172ccab9ed76f9b926aa9045d656"),
    ("construct -a 2 -b -1", 2, "490349f440ae560822f5177c56fb285e50379c1a67fba0f67bcb4d747318734f"),
    ("verify -a 1 -b 1 --x0 1 --x1 1 --terms 10", 1, "6a3f92acf0c9aa0edf8037c23c18276fa751c50a8f2dc0abb228f573f413fd35"),
    ("verify -a 3 -b -1 --x0 0 --x1 0 --terms 5", 1, "87772e9ae3ffb9bae4bff042b28b6ac60d73b20cb7b5b6411d69035c98f10760"),
    ("triples -a 8 -b 1", 0, "9f71cd751c9cf1d782697ec9918e5b893243970e447deaf504a8508bd5c4d6ef"),
    ("table", 0, "bdf38eb6fd54ebf07058e5c924587f9bbb2a10662cde0329af7f14c0b87b04e8"),
]


@pytest.mark.parametrize("command, code, digest", GOLDEN_TEXT, ids=[g[0] for g in GOLDEN_TEXT])
def test_text_output_is_unchanged(capsys, command, code, digest):
    assert main(command.split()) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
