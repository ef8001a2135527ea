"""Byte pins of CLI reports.

Each command runs in process and the sha256 of its stdout is compared with
a hash recorded at the parent of the change that added the pin, before any
source file of that change was edited; so is its exit code.  A mismatch
means a report changed by at least one byte, which a refactor must not do.
Commands run in the directory of the fixture files, so the algebra, map
and span files they name are relative paths and the reports that echo them
are stable.
"""

import hashlib
import json
from fractions import Fraction
from random import Random

import pytest

from helpers import conjugate_algebra, random_basis_change
from nhlc import io_json
from nhlc.algebra import ColorAlgebra, HomMap
from nhlc.builders import build_simple_nlie
from nhlc.cli import main
from nhlc.linalg import Matrix
from nhlc.spaces import double_derivation_space
from nhlc.triple import triple_derivation_space

# "<fixture>: <arguments>" -> sha256 of stdout; the algebra file comes last
PINS = {
    "a4: spaces --kind der --k 0 --json":
        "843d07ad7ad5c864ecb941469004d841474a5151c70708ac879ba646b5dd8a52",
    "a4: spaces --kind der --k 1 --json":
        "d89277b752e8a38f036fa59993335ffca8cbc90d5639104c82e0f38394414db3",
    "a4: spaces --kind dder --k 0 --json":
        "022137afcce2d96ddf2c9fcfe46657b7007dddc2333277cbe334bd3efb3332f9",
    "a4: spaces --kind dder --k 1 --json":
        "114845d1a9719d4c363522cc091e14556f34a4efc3c63f52157a08b5d200a481",
    "a4: spaces --kind inner --k 0 --json":
        "a0e89e82d895f98b0152a378e0b8bc86e244b74b65fbf6aac54c6fe00bb7141f",
    "a4: spaces --kind inner --k 1 --json":
        "92a58d25b6dc37ae1731aab3012228db62400d4c17a467cd3fddb36eae331d25",
    "twisted_a4: spaces --kind der --k 0 --json":
        "aa85bd9a0616b393a407b7b30df818d4d95f3e63725c0527d4c708428b7847a5",
    "twisted_a4: spaces --kind der --k 1 --json":
        "35571946a9b28339f43157a48bb7e3693e77dfb9f3583c0bdc0ad03c1ad9b77e",
    "twisted_a4: spaces --kind dder --k 0 --json":
        "c56a12dbd1b8ad1548a9a00224512ef4d79b1780f76b028e0c2b8e709237718e",
    "twisted_a4: spaces --kind dder --k 1 --json":
        "5aa6724de5b11184cd348fdf6c6772ae9fbc19ac8b631b302530e4cd8e4d281a",
    "twisted_a4: spaces --kind inner --k 0 --json":
        "d9431c537d93a48b33151fc9ab0a204eebe81aac6ff55be8d3048e375ec7a16f",
    "twisted_a4: spaces --kind inner --k 1 --json":
        "d0804c30053f9aa1cfe567bdaa574d0dd9d0caa112514f1100fc8dc83c1ac171",
    "super_heis: spaces --kind der --k 0 --json":
        "6ef9a0dd52741b61dceac26516167baeba186c3b8b90178b7c410d6418139bdb",
    "super_heis: spaces --kind der --k 1 --json":
        "09c72397b6dd3383c2dcf31283df8dd51c9460064896aef0734d0ecfdb2b920c",
    "super_heis: spaces --kind inner --k 0 --json":
        "8e4782e4cf7da3c6135dca1f11cde2785a511dcc6b3191e888566fbe5abfaf42",
    "super_heis: spaces --kind inner --k 1 --json":
        "a2c976b904f6547e8b55e0233d0b81643a159119e10bd54506309221223de82e",
    "color_heis3: spaces --kind der --k 0 --json":
        "cd681bb7eace5be2104b7b555c068e2e8363e0d8862b08a99b209d8bb576fdb9",
    "color_heis3: spaces --kind der --k 1 --json":
        "2d51c48cedb90a67439dbc015eebe72f6be848ce20d53b5be0316eb76ff76110",
    "color_heis3: spaces --kind dder --k 0 --json":
        "cedfd9d31cb137877d690b6a4316892a448ec5c0fc8cf0d246fdd8b1ebe0ecfa",
    "color_heis3: spaces --kind dder --k 1 --json":
        "1c3aeb06fa940d0f7690bf0c8c079b1e4f21cd84b3593be571d2f9f935ac8715",
    "color_heis3: spaces --kind inner --k 0 --json":
        "3200e0a5126be2e82918d3bbe83fee0d7a70dddf1b9cceac6e652544dd4594b1",
    "color_heis3: spaces --kind inner --k 1 --json":
        "76e64eef62e8a3151f9433e75e9f4ab3d34333340c1c7d60f0afb27c74895b4d",
    "a4: tder --source inn --k-max 1 --json":
        "ec912753eb2bdaed665f3d886e85174fe39719b8c1dc14de81e60d153fb49d0d",
    "a4: tder --source der --k-max 1 --json":
        "5b76d0dda76e5d1d46720b16929c02e782f7e59fe776453ba4dd18b29c415f18",
    "a4: tder --source dder --k-max 1 --json":
        "96caea44f232c51696ec52ae21edb1bc52b0b48698faee2dba44cf5a0fa8e2d1",
    "a4: verify --all --k-max 1 --json":
        "2a19737f95cb6913b869d0fa8dc77feec661fd89a7aee659b2b5ae10b6d71fb0",
    "super_heis: verify --all --k-max 1 --json":
        "577e677ec46cadf677e6f767f15127bea2980ce94c20f4dd2a79d795e700a17b",
    "twisted_a4: verify --all --k-max 1 --json":
        "bee1c86c96c41daf9574196cc2f387419fb0edd7da8d839bcd3513b961f2e385",
    "color_heis3: verify --all --k-max 1 --json":
        "07f75060e32ad0bc038f8a680a04699ddbaecb932f77861c50aa46ee10ae2665",
    "sl2_heis3: verify --all --k-max 1 --json":
        "1a1f88f5a3ccd9b8e40f1e5f8902525d8913f5cd5600a683924d5f42b16b4e68",
    "a4: verify --triple --k-max 1 --json":
        "0d5c02463dc6eaffdc1c5d8b6aa88533085bb13675d552c5d310c608e2f78481",
    "a4: center --json":
        "9e94715b8b883cfc4811f2a42a52b1cee9134a28021c213c480ed00389d35d46",
    "twisted_a4: center --json":
        "da85e0347f38cd839a50c44b4d68eabbcfcc3cf70117bd12fd0c7df1d75385f1",
    "super_heis: center --json":
        "7e8e2cb1e7fb53381804b3add9ad4a2ddfe3f5b7895c315de2e0f5d022a8e451",
    "color_heis3: center --json":
        "79f36621a46aa71d532438ac3ca0a14e7b955f23b6a864dd4925bba4a3a83e37",
    "sl2_heis3: center --json":
        "e460879fe23b6bb15676e34539a9f062ed79630b93ce486e06e812dc73124abc",
    "a4_mutant: center --json":
        "3ee97c43ceca128fb4262438782f0deb305415e08987f65e85b43be43d04d191",
    "twisted_a4: spaces --kind der --k -1 --json":
        "3a55eb368396f319156ce7eb7802f1d27a5b3af2120ba54266b0b82abc226469",
    "twisted_a4: spaces --kind dder --k -1 --json":
        "cf867d6fc02da30fda9d4c93ee41fb2d4723805cc86f5623c41ef2ec0a6b461c",
    "a4: delta --k 0 --map a4_dder0_map.json --json":
        "8d2997c29ae2a2f8011b3c765235efaf379c234ac5847d1cb1b404e91f9c6c5d",
    "a4: centralizer --span a4_span.json --json":
        "b2eee2a396eb524efa98e90205ae0751eb6f59b6e3f81c1b3df798cc26560e30",
    "a4_mutant: verify --all --k-max 1 --json":
        "4bd03455bb2b39df9009c2ffd1574af7532ce5f0982f040cfc898298a025b1a6",
    "a4_mutant: verify --all --k-max 0":
        "44673e2042084eff8a7f1f5c732ab96c6860da79c4fc0ec997b03b9738548150",
    "a4: check --kind der --k 0 --map a4_dder0_map.json --json":
        "2635b38440d11929d931319ee43100f77ba027c206444458cb44d07d0ed00677",
    "a4: check --kind der --k 0 --map a4_identity_map.json --json":
        "255bdc26eb396e55834e591783b30b0bcdff0f1c7e6c43a1862f1aa0f4e0f5d3",
    "a4: check --kind der --k 1 --map a4_dder0_map.json --json":
        "d432a1f253a2344021b5d69cba2cfcf72052cd869e4e0e617815ccbb4dbcc771",
    "a4: check --kind der --k 1 --map a4_identity_map.json --json":
        "f91ce5e1cc5cb2189eda97e825e5c49b07ffb3262372b13d53634222c59a232e",
    "a4: check --kind dder --k 0 --map a4_dder0_map.json --json":
        "14e82f22b43cca1014cac92f0c5ba7d84e949e20a8ca6bcfae7dadfba66354e4",
    "a4: check --kind dder --k 0 --map a4_identity_map.json --json":
        "f98197ba7121aff186bccd57bf2921a35c1c4e966d3ac68f900f0aee31dfe5a5",
    "a4: check --kind dder --k 1 --map a4_dder0_map.json --json":
        "7b6e1f273b3482bc9c02a13a2cccc39a3bf71d740f18d6a725561027b3751389",
    "a4: check --kind dder --k 1 --map a4_identity_map.json --json":
        "6d22b24ef66924812d9b1e6cebd0ef215f6505d0da210e511c2b94e245bc561b",
    "twisted_a4: check --kind der --k 0 --map twisted_a4_dder0_map.json --json":
        "8ffdea31a0ca9bc65e2c8fa59c9efffc8bb7ae5443c940fcf7d70f49e07aa656",
    "twisted_a4: check --kind der --k 0 --map twisted_a4_identity_map.json --json":
        "9f811b7e3b627c4ebbebc62631d90084219eda786af7e36bbb83d7fb53af0921",
    "twisted_a4: check --kind der --k 1 --map twisted_a4_dder0_map.json --json":
        "c3b63b08a264051ff525bef89bb5532d62d9a66fa6e4190feae9e0436244fa81",
    "twisted_a4: check --kind der --k 1 --map twisted_a4_identity_map.json --json":
        "06280467dd1aa4334f422f25bfce57fd074ddc66b6fb64b02f2a855735c47d04",
    "twisted_a4: check --kind dder --k 0 --map twisted_a4_dder0_map.json --json":
        "cf62dac4f2cd520f069018c0e033410f2a637e917fdbcabd59d665a993038461",
    "twisted_a4: check --kind dder --k 0 --map twisted_a4_identity_map.json --json":
        "e22391266608b91a034e58c30c9ed08e89084c4a8768a8b93ef1f31320bf7b76",
    "twisted_a4: check --kind dder --k 1 --map twisted_a4_dder0_map.json --json":
        "6fcddefed141424d138cb01f14c246ef29139d2fb61db8d2f8b0ca3d162852f3",
    "twisted_a4: check --kind dder --k 1 --map twisted_a4_identity_map.json --json":
        "60d99c9c915b9ead45fb4dc5d3d313b43fc423225d153827e3db1d52cc041d3b",
    "super_heis: check --kind tder --k 0 --map super_heis_tder0_map.json --json":
        "c37095ee8efdc96c3c9523521e82e265f541f8937827cf83286d597b12f3fd83",
    "super_heis: check --kind tder --k 0 --map super_heis_tder0_map.json":
        "b9abc1ac6413b4f0721b41e996153eea670c750019c2c83d0db40bdf2e8a8c04",
    "super_heis: check --kind tder --k 0 --map super_heis_identity_map.json --json":
        "2175a33b993ed7d194ece50743e2bb1d1a57501dbad8ee2cc54dc0769abf6dd9",
    "super_heis: check --kind tder --k 0 --map super_heis_identity_map.json":
        "d3b44b3261f45067411d9230e69e1a5d0a46eee9355543bbecfac911427e4c30",
    "sl2_heis3: check --kind tder --k 0 --map sl2_heis3_identity_map.json --json":
        "93a49185cf83bd7d17aa53de435d7c3860803b355fdb10c72e9e183361d811c7",
    "sl2_heis3: check --kind tder --k 0 --map sl2_heis3_identity_map.json":
        "280e0507555d5f85e4bb3e497f44de97fd88971806bcea015e93adb2bf99bf57",
    "color_simple4: check --kind der --k 0 --map color_simple4_identity_map.json --json":
        "066414dd2c7f6e081ca5ab65403b00bc65cf817d54ea18361459c15e3a27366d",
    "color_simple4: check --kind dder --k 0 --map color_simple4_identity_map.json --json":
        "ab4220ede6ae9a5d93af94ef68974ca5900d12c62f583855163b5980ac613c1b",
    "simple4_mutant: validate --json":
        "550491bea4b90538e5932165ab19a568bef6db3afea77ddac2175dc3aff5a96c",
    "color_simple4_mutant: validate --json":
        "e39d3348960899636c82df2eacf5e4a8fa89308ee12ac6feb0a2aae9fb5e0afe",
    # Fraction entries in every commutator, shift and coordinate
    "a4_conj: verify --all --k-max 0 --json":
        "4b1492a14fcb8124aef629d801c132fa067fb108a8d3ecd03dbd52d3f518d514",
    # colour signs in the commutators of the map algebra
    "color_simple4: verify --all --k-max 1 --json":
        "2f491c2d18591feaa14a93974315873c506162549c319cf8efbe7224dcfa2669",
    # one json.dumps line per violation in text mode
    "simple4_mutant: validate":
        "455e0d879a7b8cb810439590dfecceffda97f1ac40c1c91564559fec4397f89d",
    # the error report of an NhlcError (ArityError: dder needs arity >= 3)
    "super_heis: spaces --kind dder --k 0 --json":
        "f7930a4838840ae273832e9ca8f1da8ca994265f9a5711e0dae03d8884c93052",
    "super_heis: spaces --kind dder --k 0":
        "57ac540c2fbd2e2fa230f65d8c496f4a412b772ebf11566a44e7b23bd1e7abd0",
    # the load violation of a file that is no algebra
    "not_an_object: validate --json":
        "14337a6c33feb7c7be2de0e70c148b12b650f71f451c0258be22a774671cb53a",
}

# commands whose exit code is not 0
EXIT_CODES = {
    "a4_mutant: center --json": 1,
    "a4_mutant: verify --all --k-max 1 --json": 1,
    "a4_mutant: verify --all --k-max 0": 1,
    "a4: check --kind der --k 0 --map a4_identity_map.json --json": 1,
    "a4: check --kind der --k 1 --map a4_identity_map.json --json": 1,
    "a4: check --kind dder --k 0 --map a4_identity_map.json --json": 1,
    "a4: check --kind dder --k 1 --map a4_identity_map.json --json": 1,
    "twisted_a4: check --kind der --k 0 --map twisted_a4_identity_map.json --json": 1,
    "twisted_a4: check --kind der --k 1 --map twisted_a4_identity_map.json --json": 1,
    "twisted_a4: check --kind dder --k 0 --map twisted_a4_identity_map.json --json": 1,
    "twisted_a4: check --kind dder --k 1 --map twisted_a4_identity_map.json --json": 1,
    "sl2_heis3: check --kind tder --k 0 --map sl2_heis3_identity_map.json --json": 1,
    "sl2_heis3: check --kind tder --k 0 --map sl2_heis3_identity_map.json": 1,
    "color_simple4: check --kind der --k 0 --map color_simple4_identity_map.json --json": 1,
    "color_simple4: check --kind dder --k 0 --map color_simple4_identity_map.json --json": 1,
    "simple4_mutant: validate --json": 1,
    "color_simple4_mutant: validate --json": 1,
    "simple4_mutant: validate": 1,
    "super_heis: spaces --kind dder --k 0 --json": 1,
    "super_heis: spaces --kind dder --k 0": 1,
    "not_an_object: validate --json": 1,
}


def _a4_mutant(a4):
    """A4 with 1 added to the e1 coefficient of [e1, e2, e3]: it breaks the
    Jacobi identity (the first injection of the acceptance axiom suite)."""
    constants = {t: dict(v) for t, v in a4.constants.items()}
    constants[(0, 1, 2)][0] = constants[(0, 1, 2)].get(0, Fraction(0)) + 1
    return ColorAlgebra("A4_mutant", 3, a4.group, a4.eps, list(a4.basis),
                        a4.alpha, constants)


def _off_target_mutant(A):
    """A 4-Lie algebra with 1/3 added to the e4 coefficient of
    [e1, e2, e3, e4], whose value is e5: it breaks the Jacobi identity on
    1,296 ordered pairs, with Fraction values and, on COLOR_SIMPLE4, colour
    signs.  e4 has degree 0, so the grading still holds."""
    constants = {t: dict(v) for t, v in A.constants.items()}
    constants[(0, 1, 2, 3)][3] = Fraction(1, 3)
    return ColorAlgebra(A.name + "_mutant", 4, A.group, A.eps, list(A.basis),
                        A.alpha, constants)


@pytest.fixture(scope="module")
def algebra_files(tmp_path_factory, a4, twisted_a4, super_heis, color_heis3,
                  sl2_heis3, color_simple4):
    root = tmp_path_factory.mktemp("pins")
    paths = {}
    for name, A in (("a4", a4), ("twisted_a4", twisted_a4),
                    ("super_heis", super_heis), ("color_heis3", color_heis3),
                    ("sl2_heis3", sl2_heis3), ("color_simple4", color_simple4),
                    ("a4_mutant", _a4_mutant(a4)),
                    ("a4_conj", conjugate_algebra(
                        a4, random_basis_change(a4, Random(4)), "A4_conj")),
                    ("simple4_mutant", _off_target_mutant(build_simple_nlie(4))),
                    ("color_simple4_mutant", _off_target_mutant(color_simple4))):
        io_json.save(A, root / f"{name}.json")
        paths[name] = f"{name}.json"
    maps = {"a4_dder0_map.json": double_derivation_space(a4, 0).maps()[0],
            "twisted_a4_dder0_map.json":
                double_derivation_space(twisted_a4, 0).maps()[0],
            "super_heis_tder0_map.json":
                triple_derivation_space(super_heis, 0).maps()[0]}
    for name, A in (("a4", a4), ("twisted_a4", twisted_a4),
                    ("super_heis", super_heis), ("sl2_heis3", sl2_heis3),
                    ("color_simple4", color_simple4)):
        maps[f"{name}_identity_map.json"] = HomMap(A.group.zero(),
                                                   Matrix.identity(A.dim))
    for file_name, D in maps.items():
        (root / file_name).write_text(
            json.dumps({"matrix": io_json.matrix_to_grid(D.matrix)}))
    (root / "a4_span.json").write_text(
        json.dumps({"vectors": [["1", "1/2", "0", "-1"]]}))
    (root / "not_an_object.json").write_text("[]")
    paths["not_an_object"] = "not_an_object.json"
    return root, paths


@pytest.mark.parametrize("command", sorted(PINS))
def test_report_bytes_pinned(command, algebra_files, capsys, monkeypatch):
    root, paths = algebra_files
    monkeypatch.chdir(root)
    name, args = command.split(": ")
    code = main(args.split() + [paths[name]])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINS[command]
    assert code == EXIT_CODES.get(command, 0)
