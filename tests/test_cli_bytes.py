"""Byte gate on the command line: stdout and exit code of fixed commands.

Each pin is the exit code and the SHA-256 of stdout for one command, run
in-process through ``cli.main``.  A refactor must leave every pin as it
is; a deliberate change of output re-pins with

    PYTHONPATH=src python tests/test_cli_bytes.py > pins.txt

and pastes the lines into ``PINS``.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from pantsarc.cli import main

_WORDS = ("12", "33", "1b1", "1BABA2", "1baB1", "3aB1", "1bAbAbAbA3",
          "3abababab3", "1aa2", "1x2", "1BB2", "12a")

_MEMBERS = (("F1", 3, None), ("F2", 3, None), ("F3", 3, None),
            ("F4", 3, None), ("Z1", 2, 3), ("Z2", 2, 3), ("Z3", 2, None),
            ("Z4", 2, None), ("Z5", 2, None), ("C2", 0, None),
            ("C7", 0, None))


def commands():
    """Every pinned command line, without its ``--format``."""
    out = [["census", "--length", str(n), "--jobs", "1"] for n in range(2, 13)]
    for n in range(2, 8):
        out += [["enumerate", "--length", str(n)],
                ["enumerate", "--length", str(n), "--count-only"]]
    for word in _WORDS:
        out += [["validate", word], ["intersect", word],
                ["intersect", word, "--trace"]]
    out += [["witness", str(n)] for n in (0, 1, 2, 7, 14, 1000)]
    out += [["spectrum", "--max", "60"], ["cover", "--max", "300"],
            ["tables", "--verify"], ["fixtures"],
            ["cf", "2,1,1"], ["cf", "2,2,1,1,1,1"], ["cf", "2,0,1"]]
    for fam, n, m in _MEMBERS:
        argv = ["family", "--id", fam, "--n", str(n)]
        if m is not None:
            argv += ["--m", str(m)]
        out += [argv, argv + ["--verify"]]
    out.append(["family", "--id", "Z1", "--n", "1"])
    return [argv + ["--format", fmt] for fmt in ("json", "text")
            for argv in out]


def pin(argv):
    """One ``PINS`` line: exit code, SHA-256 of stdout, the command line."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return f"{code} {digest} {' '.join(argv)}"


# one line per command, in the order of commands()
PINS = """
0 f8ec486b1fdc45c104936b90272aa07cfdbe985d2ad20975377aca7c2506e09f census --length 2 --jobs 1 --format json
0 a3931e64aef690dab13f56fce52004aac06f0e55c106808854b38c00d1c306b5 census --length 3 --jobs 1 --format json
0 5ca0b3909d2e0ce6521b3d9b028cba3dd884ba9747aaf0db16607578f535f403 census --length 4 --jobs 1 --format json
0 983a4e1f3203f1bc2721880e26cc00c5196cf8eb41ae59062992925ea7c8c64a census --length 5 --jobs 1 --format json
0 abb488f44199c32db12252f086b428ab6222160fdc9a985dd692098ffb455dcf census --length 6 --jobs 1 --format json
0 28ec05db1977e40ddeb7625ff56d51c81b49cb74068bd95402b4a09ce17332bd census --length 7 --jobs 1 --format json
0 21f902541b4a9c13a3d23dcdefa4971fe9d6834167a0a5fc5910527e21e9cf9f census --length 8 --jobs 1 --format json
0 45bf524aa371cb174619a13841ad68f7278c0b4b71b4783fb1e665e504c00774 census --length 9 --jobs 1 --format json
0 d7dfcccba2945bedf5cca96b833e3c21395ede8a2c37843ea069f34e4119bcf5 census --length 10 --jobs 1 --format json
0 a5cb2ec233c0d9777452f9cd4ea5ba3b83af11ffa949b8b992da5f94b4580f96 census --length 11 --jobs 1 --format json
0 34949681f99ab4bb48599decd03206f4e415fdb26e3a51e9b7f13ec845348d8a census --length 12 --jobs 1 --format json
0 c10f7e3be8d1d8fc2b62f5bac87136d0c93979234614c8dd958f32b0c80e07c8 enumerate --length 2 --format json
0 dcc101b254b350b558ee28e044ffba527e029d69d245870cdafcd4a119d1e5b0 enumerate --length 2 --count-only --format json
0 4f217bd0b6c2f3da560294500638d01239d8a9f6f7a61a8e4c937c8391d6081f enumerate --length 3 --format json
0 869812b19fa8fea5cbcfda55cd8bd127a193947e25e04d083b198e12d1484364 enumerate --length 3 --count-only --format json
0 88d4a47111e483892687ae1ebf8f33a02e7bc5d652327bef5c818e847c409095 enumerate --length 4 --format json
0 41450e17c1011abf4377486e1d954cb22604584dada71ba0cc618902f8358355 enumerate --length 4 --count-only --format json
0 0d820976df86ac3ef2d2be431bd65e41b03cb197f6c5388da3c6168ea9460eaf enumerate --length 5 --format json
0 de245f484b51e79abb5571cd4fa28bddf4136738f47616b44cb87d6fd31c2e4b enumerate --length 5 --count-only --format json
0 52ebdff8f46963938b930e93dccc51fdbd1a8e4d298effe8b6a8046da8b7170a enumerate --length 6 --format json
0 06b1f4a678c498b4842c70991c77c7b4c3bf1f3086e998eba5cd383d09f76b22 enumerate --length 6 --count-only --format json
0 f362e9cbabb11ead5f946bc49c5f0c1ab8ea0f639c5a0d8a55f55432f969cb89 enumerate --length 7 --format json
0 463c89bf888d6c56e92c3754e90450322c2df062a50b4319471c4c3003ea785e enumerate --length 7 --count-only --format json
0 81864b68b46f409800f6a468966cc4dce997bcbfc56f0249f55dc274e1a31f1a validate 12 --format json
0 2bddf630f4aff0b937220e643ba4832cb19545947247254eb6d796e91bc10554 intersect 12 --format json
0 7840e1b7bbd4b44bc6b1d1856d1168bb20184615eea8502eb38a5a04eddfcf3f intersect 12 --trace --format json
0 a5b654c2cc0fcaa24a451cd19cc16f81e59e3796b50159e53f2725de9c4808e3 validate 33 --format json
0 e03569bd41b196873f1c2000d92412c7e49d96229a547b58c6da35774f63c893 intersect 33 --format json
0 959a3b45697f0e2839f31a81c7e13b928ecccc62398142d2a55d15b0ddb12cb8 intersect 33 --trace --format json
0 35c6a5316e0aa5a4a426412b17409f4d371adcb5ba0a75a8b9aa62c5bda5d4b4 validate 1b1 --format json
0 dc5c6f56a99673f846128d2b97171a2f09c77fd0b54173f7fdfdab0a729e2d4f intersect 1b1 --format json
0 4e20bc31db431fc8f0c313d03705a9597729a7e9a07e7f1d9f2535cb4fea46f3 intersect 1b1 --trace --format json
0 eb4883135e989ef8fc4b16b247c2393ed93b756df630baaf05884ba7c1623c87 validate 1BABA2 --format json
0 81a09f81426b56a7c3da9ab9411a0c588d3b67f457201e543f9be31c81ca5a25 intersect 1BABA2 --format json
0 21a0a011fbcc59bf886e3333bddfff4c1829741bb16b996fbbabfdf0e69714f3 intersect 1BABA2 --trace --format json
0 2faee5b912643b58c736e175613d3bacadd731275dc6767f1e19991412d741ee validate 1baB1 --format json
0 20cf9ff535d585eb69368876c6cd94527ca7eda4877d5d3c64eefdc1496c84ab intersect 1baB1 --format json
0 ee326aa8473711d1d72bda417e607eb29abe9d9dd307d9b055e9b9fc996f482f intersect 1baB1 --trace --format json
0 0440ea8aea76e9eb7200d6fa209855dc924d3988c15b8ba6d2f7d38684fa7ba1 validate 3aB1 --format json
0 e478272de29cb371f65986b422fc441a3e7e3daacf3a6f14584773d12a02a912 intersect 3aB1 --format json
0 be6fcc262a5d3b01c5a336f8d5216e51fcb3be0283b40bd83e5ac3018ad92112 intersect 3aB1 --trace --format json
0 1127cf181d803600ec6babf26e6c8ea2facdc8b7b4974fafce0ffb0fd8cbce62 validate 1bAbAbAbA3 --format json
0 38cfa2c927266484495369d5f22a7cb0f37175eb452a38eedf9851de8bb987f7 intersect 1bAbAbAbA3 --format json
0 e35e0bcc6ac936cfb39c1b4183c87aa698dc5ffa9fc646a0bfcd6daec00bf0b1 intersect 1bAbAbAbA3 --trace --format json
0 17cc4bb36b95d239cc75f6f550d2764b8c966a43089d5f9891a7479d0f77c804 validate 3abababab3 --format json
0 dc3829045025a8c2e1ad15cc38ae650656342ee4944b466848760963a87fc3ca intersect 3abababab3 --format json
0 1ce91c832af57ed48c205081343f1af704a8aa9dba87d26d8b23e2d45411b53c intersect 3abababab3 --trace --format json
1 76f9321d09ff9559468ae095077a07879e59aaca94fbad3785c7c4616387fdc2 validate 1aa2 --format json
1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 intersect 1aa2 --format json
1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 intersect 1aa2 --trace --format json
1 3308a060bcb723056e01b0084d239c3d3c81880d8432bf627845a4c0936eb6dc validate 1x2 --format json
1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 intersect 1x2 --format json
1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 intersect 1x2 --trace --format json
1 cba7ccbf33a2e7402601011b87168b625f82f75f466d57c8605db2b101e6ad3f validate 1BB2 --format json
1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 intersect 1BB2 --format json
1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 intersect 1BB2 --trace --format json
1 1790dc0715aacdf6901ba7a7d21ae10ce9d575870a7889486f945bf1b45ae577 validate 12a --format json
1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 intersect 12a --format json
1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 intersect 12a --trace --format json
0 4960be87ea4a5620319f915d67fc8aeb2b258a5be3c210aa7c15778dcf4b836e witness 0 --format json
0 3704f9bfcb16885b568cdf2a227e605d5b11a426b218325beb4144a7971195e6 witness 1 --format json
0 6b828d61a2b19ba7135f3d33a694b27c0cbdb125fc38138d18c66dc5eaf903e8 witness 2 --format json
0 8b3571b114a1ffc14b9d541bf18257722bdd96f3c2ec209227f66ffac613b9dc witness 7 --format json
0 1923435bdba8af8121f7dad3c14f8d5482b0dd3aad326d281c06aa3c53e2a0c5 witness 14 --format json
0 1facd574e22c5afac272556771d0737d424346e7b2ac12bb19fe26f911eeefd2 witness 1000 --format json
0 cb72a20880295213f23a492ed57fb2c7999336573c667f5590b741fa4e1d2cb0 spectrum --max 60 --format json
0 ba78f40a296f8890084998ffbf5a1d681a6e316b29e4699107c71a425be2fc30 cover --max 300 --format json
0 ef4214a50a68c7ec5e5b23162792513c2e09333892a63b63e6d5b6d0afe92734 tables --verify --format json
0 f8c6f49e3afee9cc0ce84b2424298b1dd0fa2fc0efb183d424787b6ebc0d456b fixtures --format json
0 57a6908888ee1f131c0e4887ca073a708e8655f47c08ea70a0292494dbefd09e cf 2,1,1 --format json
0 106aeed9a153c2f75012e4ee8cb9be672c1ef90b9d1b29dfe46b1991e92c5ccb cf 2,2,1,1,1,1 --format json
1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 cf 2,0,1 --format json
0 1f595792eb3da1676ddea0d8ab512f6a319082039d9cd39bca4540bda93b1ab3 family --id F1 --n 3 --format json
0 20cc0470742c192ca139e86f482a6ca6efe3f10fe250a7f05c643a2f60a5070a family --id F1 --n 3 --verify --format json
0 ec053d6be4c40dc3dbcf8a783af91a84f44389f07edc684b0e5649b6c7424f56 family --id F2 --n 3 --format json
0 e251983a3322ea37d746740e1ababd82bd91c1921e39a54076ffeb6325fc5ea9 family --id F2 --n 3 --verify --format json
0 70a4e37191fd96b92532068c12bbe4d59a82efd1706f68fa261abcb84e4dcec3 family --id F3 --n 3 --format json
0 23d365e634de156b074d66c6e667bf67e0a64c8cd6161e6c3c4b17d1796db4af family --id F3 --n 3 --verify --format json
0 7806819b44e2ed01a4643546f37ea2bf24871e60398b7ff32add77d7690eb8a6 family --id F4 --n 3 --format json
0 1f74b7aaa77eff95a15cb9f7688c2782bfbee97a7fa6d349d80061e4ac58bde0 family --id F4 --n 3 --verify --format json
0 13090486239245e92729a80d0f01720694e6839b2e926daf0c3a2271370d2ada family --id Z1 --n 2 --m 3 --format json
0 a78e1ca2362334bb4d20a41e8dfa5822f0a16ad3c7c88949fb3a1d49d1d10f9a family --id Z1 --n 2 --m 3 --verify --format json
0 3e523e4830348b16fbbdc6331fbd7d252528ed668de07c4036498f772cd67684 family --id Z2 --n 2 --m 3 --format json
0 21199b70842e06e61851f937f7f2a84a6b600938fa4dd6c6a3f47f410fd4f3ce family --id Z2 --n 2 --m 3 --verify --format json
0 9a003e5afd416ba025afa648cd82c6420c26a96e7ebcc2e51ca4c8eded6a801c family --id Z3 --n 2 --format json
0 9449df25219e3e0f07e279bef965e64fb9d4c29cffd042f135fec3c901fa761b family --id Z3 --n 2 --verify --format json
0 7d1eb4da1f64932a5c40d9448db3d13723aab2b6e36a546773bab3c985743188 family --id Z4 --n 2 --format json
0 76e254a54cd8edbe9e3f63bbc7dfca3685ac6695f680165e3eae1fc4ac7732a1 family --id Z4 --n 2 --verify --format json
0 a9331345e448f701be16d88f612af0f61b56e90dcf951aa1f13002692de9f933 family --id Z5 --n 2 --format json
0 4c39bd73afc37456546168ecfdcbbdde99cefe800e98620f7cf95af9386a513f family --id Z5 --n 2 --verify --format json
0 ca7faa7513cd3e90ad89a30a4e3b45e8efe9aea7fe75d32a7235597ef9dfaeef family --id C2 --n 0 --format json
0 506ca331d77a892209b4024ed43f8a3797470cbdaa16b4c04bf8abf690246764 family --id C2 --n 0 --verify --format json
0 c2a817915f1a700fa41db817f17550e1121664995fab52abe207fc21087fbdb6 family --id C7 --n 0 --format json
0 7b67a3d26dd6df39ec1b21ab377a8f8a1a15cbe31a7f4405917d26983ef87f04 family --id C7 --n 0 --verify --format json
1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 family --id Z1 --n 1 --format json
0 df28560c4e343aee155e33f3eedf697395d65aa12f649c447d2697cd620306e7 census --length 2 --jobs 1 --format text
0 e5b5f30a36a393ef306574d577b0017ba79b3a485102c0b0018c1022370b8d53 census --length 3 --jobs 1 --format text
0 c0e872828128467e81627691cf21cca0b6ace611f58abd0c81827eb965c94b9e census --length 4 --jobs 1 --format text
0 720069ebdcd66f9671048e3882757707ec79af1d8c5a50e1a8a7b280be7d0211 census --length 5 --jobs 1 --format text
0 970c15e791a95efbe9700028dce89d2a6cdcff383af8835f8977684ae529371b census --length 6 --jobs 1 --format text
0 9ea89ba26bec92368a57292cc90a140893033928eda80682f90e3ebf4dcabcfb census --length 7 --jobs 1 --format text
0 fe376920dda98d918e3d7533ff8b81fe7333b5a7317bc62e4080a9b0be3365fe census --length 8 --jobs 1 --format text
0 69b3fc0a6391f1379851c84ec255ec1bf2ea14559f0946ae6055b34019653b2b census --length 9 --jobs 1 --format text
0 74278f7d02c7f9e44c9ab399dbc30e922358b8b798aad6426c59947e0da615f9 census --length 10 --jobs 1 --format text
0 0f19fc950fb805d6e4daf723bb81069d05e46e0b02b5dfd37790d67f21f25c8d census --length 11 --jobs 1 --format text
0 d34956e76d6ff191ddcb8d9823e9f2b01199673daf7e11cb0e5653abcd4e3bdb census --length 12 --jobs 1 --format text
0 183b4377dd218d87d2e9a176a716da55a871a40c52f97c341cb648cb0c7bdfd9 enumerate --length 2 --format text
0 10159baf262b43a92d95db59dae1f72c645127301661e0a3ce4e38b295a97c58 enumerate --length 2 --count-only --format text
0 20c44bd28cb12899d717893a4728e8ef0ce32aa488c799193ddf515d5ab8cfb8 enumerate --length 3 --format text
0 e6c21e8d260fe71882debdb339d2402a2ca7648529bc2303f48649bce0380017 enumerate --length 3 --count-only --format text
0 db05e116db4e92dabf8e0006f736b33f41d5aae8275fedf8baf57fbfba18e0c5 enumerate --length 4 --format text
0 654ee9da442fa353f59f11beb688fc7f76c8de62a6c18b2a181fdde2a27cc3ef enumerate --length 4 --count-only --format text
0 9b582bb90e88bab6284fe8263e31c50efac268522bd0158bdc4a104b20404dc2 enumerate --length 5 --format text
0 9efe5a55840d37eb5db13a22ccab7e8f9867c982d1f7d18313c63fa0aa1c801b enumerate --length 5 --count-only --format text
0 81c65a3d2f600458710f9771bceb83bcdac2a6cbae92da70b3711e7b0f91b8eb enumerate --length 6 --format text
0 fd8584da38448364d37cbe0261edd1b1f3169a3330014391b622986237a20867 enumerate --length 6 --count-only --format text
0 c86d26fa3f0549b23d522a72506eff61a5d582e5b5593f17255203fa95d674e9 enumerate --length 7 --format text
0 a04b8779fae076e2078abac87ed405080395dc27b5bf3bd4693ebfb6ecf215eb enumerate --length 7 --count-only --format text
0 940c37b41d3567ac0ed5de5c1085f7c76b71b70cd626e819c99b799970ecdcfb validate 12 --format text
0 c10faba5dc07366f217f0bd9bc6f768dcac423080a41520f4f3200285c662020 intersect 12 --format text
0 cec70d87e683b395ec7b9bf1ca0c798e448e00ef40a516d954517fc62abad545 intersect 12 --trace --format text
0 940c37b41d3567ac0ed5de5c1085f7c76b71b70cd626e819c99b799970ecdcfb validate 33 --format text
0 d75897df3277e200522186de5cfc3acd231e20e3e55e2cd1304ee9d781e90d8d intersect 33 --format text
0 cec70d87e683b395ec7b9bf1ca0c798e448e00ef40a516d954517fc62abad545 intersect 33 --trace --format text
0 e4feefe76d8cf8924fb9d4edf6233a8052444b0a8db7fb0a1ca2ed79a7830d8e validate 1b1 --format text
0 a932250543be1efa077d32cd3ef78b4d4180582ab2c41083af58d3a7005edce7 intersect 1b1 --format text
0 e38a975e5be49f2a39fce29cab5ce9ff7438a95466a805e73c40a40fd928997c intersect 1b1 --trace --format text
0 3d99d6e0a5a06be7c2c7d4c49c2f600d13a44b95a40c2cdd2492401a29037c53 validate 1BABA2 --format text
0 8e37b636d65695609ec7118c5d765b858027a2219751696b8331622135c6bc7f intersect 1BABA2 --format text
0 eaccc65aa398bb4e4f35d11a394109cd783ddbe3d0ee6d331192c559b268d19b intersect 1BABA2 --trace --format text
0 81dcde8845e9605e95adf89349e56208b668146c0b44dc868c62d7651d5ed527 validate 1baB1 --format text
0 c06f406b998560d838533999f98709df53e9d153e94fb310d0d2f317bc3fb5c7 intersect 1baB1 --format text
0 2fcba8f48096ac350a7c29e70306e6d1db415acc1d4d92ec9a05238554e363f9 intersect 1baB1 --trace --format text
0 80cebe589f0aa133187a741f4abf195ab3cb51c27a555093184e3cdacb6f0505 validate 3aB1 --format text
0 5155fa1b06a33a428c9ee45e2359bdde2be118cd32811477dbdf7b4c1f0ac9b1 intersect 3aB1 --format text
0 411a11fe438232aa4f72e2a6f47480903afd3629ee7cabccebb4069098d3cc0e intersect 3aB1 --trace --format text
0 f0f5c6cb44b730782d202e5ac8e84dadcf3d3936e46b858a0c978062f298dab4 validate 1bAbAbAbA3 --format text
0 b2fef2429180556dfa0ebf1a885e7644879417de41460d6ac5d069ab97350153 intersect 1bAbAbAbA3 --format text
0 a374e617853896751f147196943d8f55d1f9a360dcf809143bc0a2d8bef90cc1 intersect 1bAbAbAbA3 --trace --format text
0 f0f5c6cb44b730782d202e5ac8e84dadcf3d3936e46b858a0c978062f298dab4 validate 3abababab3 --format text
0 508d60a1033fccf3b0db9c53fbee7757942ce22035f4914f29ae33d2eaeb01cc intersect 3abababab3 --format text
0 9c4992bc9f82bcbaba563504c651b80a41c858d3e57638320e1a4dcf6d53216c intersect 3abababab3 --trace --format text
1 3ca9e5447f1ce14bc344c7e1304bcbc7d8cfb3b3ddc961006f2b51b94cf3e448 validate 1aa2 --format text
1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 intersect 1aa2 --format text
1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 intersect 1aa2 --trace --format text
1 ff33bc3648f0c204f2ca0d654514b0cdc226f617edded76912617a785caa2e1c validate 1x2 --format text
1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 intersect 1x2 --format text
1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 intersect 1x2 --trace --format text
1 a93bb54b212d319cc4f3e7970475176156f94a41b7ee715df198971f86ccb0b4 validate 1BB2 --format text
1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 intersect 1BB2 --format text
1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 intersect 1BB2 --trace --format text
1 2ea4115604a06a28e715466019de966e0f5c4d6a039de9295895a5929f49d91f validate 12a --format text
1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 intersect 12a --format text
1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 intersect 12a --trace --format text
0 ff157b5fb00e7d3d477b3a2d105ef928ae9f9e36d241979aa46e89117b7a71a4 witness 0 --format text
0 b691503c89bdc0a9ba48b9f1ade77813943b2827a21c575c746b44cd61c1b9a9 witness 1 --format text
0 a93995c8bcc7d8c7bcb33fad6abf12b50b8e0e0832cd6fa312cc39681dd2208b witness 2 --format text
0 5365c0b0931f1495b835b233f23907e61bd26511849c522156ee9050b99e0d32 witness 7 --format text
0 05997b6ec02c91e41efcd85f0f6ab294ae64c56456acc24f7e58971b8f72a4dc witness 14 --format text
0 d0591c90f6d43a56c565761cf8d938244ffeaf1aa96d0343bccf20add0af00e3 witness 1000 --format text
0 75036de7d34ccb5440892ab25da39dc427d3cb7e65e846079aadb067f2dafb34 spectrum --max 60 --format text
0 760f155aad43b380615d9194435e424241dc613470f6c90a3005c1f84acfff57 cover --max 300 --format text
0 42456eb9cd95d339d60ae8188373115743a5bf6d4c3588dbab7739a1c27d7a9a tables --verify --format text
0 cc4e52642740bf38c91ea7f3a06f6e74e01043edbe2f576b080aacbe2777c424 fixtures --format text
0 af2b011aa249e81df28dc03e18aec17a02a36c48388fc918b3ec4ccdb5f327f7 cf 2,1,1 --format text
0 30f3cbc50b9ee16d5ebf078427122ed044cb6deb293cff1349ee3e673af6b1e0 cf 2,2,1,1,1,1 --format text
1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 cf 2,0,1 --format text
0 a8fa440fc21500893b585bd068adb7ae4852f7dac082d8a16c2e6d184f101d3d family --id F1 --n 3 --format text
0 726d5b559a7233680737f369d239ced0f7a6eaa5d93abe26c0d23ee18393b2fc family --id F1 --n 3 --verify --format text
0 0acb40f3500b6c3a40fd3fb2d62ff268d41df4ab9709b2cb6b86f54044ef9a13 family --id F2 --n 3 --format text
0 ce8badc70ba99b3f135cfcfa4885a9d10cc79ab01b7d79aa3121d75815d0b074 family --id F2 --n 3 --verify --format text
0 be4faa00e878e9461f5583dcc798dfc371b4588a87c8d30fade123d4e5d13358 family --id F3 --n 3 --format text
0 33871581e0e1f90101b3cda1d1ab1459232290a53728b26f227a2881450037c6 family --id F3 --n 3 --verify --format text
0 4433649404aeb57a897a2de4ce8c3b4352ee3994523e59da1a16e72b8d0eaccb family --id F4 --n 3 --format text
0 a4ea0729b26d93e930ee19b7be34985cf324f2dfd73ea4e3b4081c4184a00977 family --id F4 --n 3 --verify --format text
0 1d8c82974a64e45881be8e0c5c7d50518351f833eba50b260c4167c03c089ae2 family --id Z1 --n 2 --m 3 --format text
0 d4289aba1dc8e15150334658b6da9f22b908bfee52bca488d90dc2e9de84ded9 family --id Z1 --n 2 --m 3 --verify --format text
0 a99512d72e4fcb8b6cb3bf5abe3d927e9bd36dd34c940a4e470f4e691dcbad3e family --id Z2 --n 2 --m 3 --format text
0 6e3a51c6b4e056334bf58e2b2e198d23663ee0a344dbf0194e76677a5b249479 family --id Z2 --n 2 --m 3 --verify --format text
0 21eb0b017786d39836d7ba5d204483b7fc69b0933a2e647f8add2c5f2ebb8563 family --id Z3 --n 2 --format text
0 68d08eba7418cb6b7095e7ca1b2010fc595ea2242cba9c770e451709aefde666 family --id Z3 --n 2 --verify --format text
0 492649dbbfabc7c41f26de45fba0c87a3256aebf06e75b0c6a4298b7b1109af1 family --id Z4 --n 2 --format text
0 8a26209a2102d9b7fd9bb1a2a26769fee18648932d0fdb33684bd7976e0c9210 family --id Z4 --n 2 --verify --format text
0 039c1a7c3c2719f4515e7d530a9b0cad427f755eb2a8ddc331f5cb2e1cd8d48a family --id Z5 --n 2 --format text
0 d75653846c8b686e8a4988f132695d88533c11e889006790cd91c8a9baadaa32 family --id Z5 --n 2 --verify --format text
0 50ded87a2d67e2cad33f8d5888b3202573590a8586c03ff21fb15965fb2a9052 family --id C2 --n 0 --format text
0 d1a47a14c5734bee36e2154c6e510a953b643100b7bb76e11ff9c10bf27ed511 family --id C2 --n 0 --verify --format text
0 a476133d0e3296c0c07eb31a7db87546b9d34d9e7e140a85bee819d9757dc45a family --id C7 --n 0 --format text
0 c8f8abab7f0ff8c4d6f71e51330a5d9ff22518f47e478972589b5433e22781dd family --id C7 --n 0 --verify --format text
1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 family --id Z1 --n 1 --format text
""".strip().splitlines()


def test_cli_bytes_are_pinned():
    assert [pin(argv) for argv in commands()] == PINS


def test_cli_bytes_hold_in_reverse_order_after_a_usage_error():
    # one process, one parser: a usage error and then every command in
    # reverse, text first, so a call that left state in the parser or the
    # namespace for the next one would change a later pin
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        with pytest.raises(SystemExit) as exc:
            main(["census", "--jobs", "x"])
    assert exc.value.code == 1
    assert [pin(argv) for argv in reversed(commands())] == PINS[::-1]


if __name__ == "__main__":
    for argv in commands():
        print(pin(argv))
