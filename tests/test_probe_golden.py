"""Golden digests of the seeded gradient-check probes.

``make_probe`` draws the input, every block parameter and the upstream
gradient from one seeded stream, resampling near relu and hard-sigmoid
kinks. The gradient checks and acceptance criteria 5 and 7 run on these
probes, so a change to the draw order, a shape, a fan-in or a tensor name
would silently change what they check. These digests pin the probes: the
tests' default probes, the nine-token two-head ``pat_sf`` probe (today the
same as the default, pinned on its own so it survives a change of
defaults), and the probes acceptance criterion 5 uses.

To regenerate after a deliberate probe change, run
``PYTHONPATH=src python tests/test_probe_golden.py`` and paste its output.
"""

import hashlib

import numpy as np
import pytest

from patnet.gradcheck import BLOCK_KINDS, make_probe

NINE_TOKENS_TWO_HEADS = dict(channels=16, c_p=4, hw=3, heads=2)

CASES = ([(kind, seed, None) for kind in BLOCK_KINDS for seed in range(5)]
         + [("pat_sf", 1, NINE_TOKENS_TWO_HEADS)]
         + [("pat_ch", seed, None) for seed in range(100, 120)]
         + [("pat_sf", seed, None) for seed in range(200, 220)])


def case_label(kind, seed, sizes) -> str:
    return f"{kind}/{seed}" + ("" if sizes is None else "/9tok2h")


def probe_digest(kind, seed, sizes) -> str:
    """sha256 over the split, the sizes and every probe tensor in order:
    name, dtype, shape and bytes of x, each named parameter and upstream."""
    x, split, params, upstream, sizes = make_probe(kind, seed, sizes)
    h = hashlib.sha256()
    h.update(f"split {split.c_total} {split.c_p} sizes {sorted(sizes.items())}\n".encode())
    for name, t in (("x", x), *params.items(), ("upstream", upstream)):
        h.update(f"{name} {t.dtype.str} {t.shape}\n".encode())
        h.update(np.ascontiguousarray(t).tobytes())
    return h.hexdigest()


PROBE_SHA256 = {
    "pat_ch/0": "4c245d7b65146a28b1fe724a46cd80ef71e12a325cfd7fbaea21111fdb5751ef",
    "pat_ch/1": "81266423d92c84ce7cab768ec167636eaa6c49a580f87db621ebd2b9c1ce62b1",
    "pat_ch/2": "21db2fec3dd24c998378c251112583b3a5ec5f489d60296fc013300753c609b8",
    "pat_ch/3": "a7eeb145401bfd2ddc9046317998ee47a1841ebc2e620f18dd2f85eae20b3dda",
    "pat_ch/4": "7f779fbc9c1a78a3d2abaa13cf38986ecc9561a1e4c50ac8f075635cdbecf79f",
    "pat_sp/0": "e6799051b73f8dc3032fd2a8b68577c7f21dfeb8e08abb09f36c44615e8deef2",
    "pat_sp/1": "c568e8620cfe426011ba891db12bbd31e8fa559b9d4d13c9fd65c25a7e10e030",
    "pat_sp/2": "dc2758f5e7afbc647cad0b1dfab1858737a939668d5ed754454e10e7e7d22539",
    "pat_sp/3": "9145e93a763beb0bffd377ed9d287858c956442332800f066023006bbb28f20a",
    "pat_sp/4": "855a10e2406ddf5b61d5d246c3ffd5f75c2c7c707e0eedb3cc8ed1d72536bc99",
    "pat_sf/0": "517535c6e8ff0573ac1491ae01309cb19fb2df7a1c564ed41851da2dbd11ab65",
    "pat_sf/1": "38a4278d664fb51f148cb66c681995f81d250092d450091cb41c93289fb6a3e4",
    "pat_sf/2": "d2fab190c23433a25d340a3eea8c94b08ecff96dba70c0bbee273599dbd772fd",
    "pat_sf/3": "4008e66be82fa2b6a0e40954d631a951a79dcba6738116e870c1abb58838e180",
    "pat_sf/4": "aa58d7329ffdf03f2d8143c22401e5ded0482382189fa5c61150bd6ecfdf40a6",
    "pat_sf/1/9tok2h": "38a4278d664fb51f148cb66c681995f81d250092d450091cb41c93289fb6a3e4",
    "pat_ch/100": "86578a61268b173654482983c86379c084eac475a626bdc4c35580702a7c6a24",
    "pat_ch/101": "1d170a7a33bf5280917cc139aebfcc5c7c01ee685f9b33ff9f8d32af62afb1c2",
    "pat_ch/102": "66fcdd1def18baa4d3f7b2e934294f064b9e0774da26d65fd5d000b2f4fc5f1b",
    "pat_ch/103": "f757dac974ad9e2d7b01e93d41d7f88fe4013bfd2767b49e40b3b849cac324a5",
    "pat_ch/104": "a7702231dc1feaf70e325f175d07d1a318a61c195d0dc0c4049cec6d5673f36c",
    "pat_ch/105": "833c9d37012eb4153758cceeefeef85ddc0070a1f3f913fc2d557268f194ccf7",
    "pat_ch/106": "379395b31aa86097ee582e21defc5bacbd512227797dffcc19e22e9ba24ab1e7",
    "pat_ch/107": "5b932181eed129d1b2f9c3bc8e85afcf440ae77060037d9a189aade0d9721dd5",
    "pat_ch/108": "592276ea54fc1bc08f362996b946645b76782f9ae9ab1e69c687f43b077cd985",
    "pat_ch/109": "c771299095751d9bdb794663991f797995b7a60bba464fd09ec16dd3bee43694",
    "pat_ch/110": "4ad82a63a6a416462a3f20684fe6c3a5e2d7ab5fdd2c0944893ba0c44d9717e7",
    "pat_ch/111": "c12ec7bbd3f2547f10fcc847b5e1c7e8cb5b86e9335f955d779bba1a042b8fd2",
    "pat_ch/112": "338f0286822869c9356ea62d547b5f055267429b9b94223b1f08f4e06f198062",
    "pat_ch/113": "8a07dd09986b595cd19b1b917b75268f25e180dcf68db26d582ccba408df67eb",
    "pat_ch/114": "399458a1d158b7b683c50fb8d135e6bfa16ca43773522ab25e56f3868e37a5c0",
    "pat_ch/115": "2aff4ea2eac1fc379ad3cef95e511cdbe8e319fe447d531429048986e5e5bcd6",
    "pat_ch/116": "c43f17d1af96a48c3d519401deff7c25d0e514c7c132676dddaa77c32f0cad68",
    "pat_ch/117": "81e5624bd02756236ed184604a7472da075eac20af1ba64b351b1be06739f6c2",
    "pat_ch/118": "6a28f5c36ddb08a530b2a41412db436964df765465dc4ca5bc508c4ecc0f22a2",
    "pat_ch/119": "d4186ba3eaa71150d33ffddfb7f7a5944811f255f956522c71993047553f957f",
    "pat_sf/200": "095b5fd5febd384099ecbcac3a3f03d9f82d38f16a157a304342a132dbb61a13",
    "pat_sf/201": "6d27219ddd6a8a91d5e40a5d4ed5baf8012171d66ea269e0037f2f9e4f6daacc",
    "pat_sf/202": "b45edad199b784c423fd5ce09393efd028eec439ef08d1d1a82b65682ee44879",
    "pat_sf/203": "98d245c861b9ead8a56b1311211c29cdc9a735944f2ea3d2784e1a8e55d81c7c",
    "pat_sf/204": "7dfac7db60f213150cada7417eeaeb089e278208f79c5adda190c187a30f8a4b",
    "pat_sf/205": "ac22533748e9c92abcd3b1a39c497fa0fe812f2658dd93d2cd6886cc0c7fb9ca",
    "pat_sf/206": "8c25565bec3f2a8779f352235990df348579826eea98a53cc15629ff73d3b98c",
    "pat_sf/207": "b93e71d90471cad64d54b38231cd8370c9b12540aac343d169652dfb829e7d73",
    "pat_sf/208": "6d4b196d00fba112da5d8acc492fa7105c93bfabd47ea91d77ee36d9b14980d7",
    "pat_sf/209": "371e29022410140d3e98d044491f22a30c30562062d05d9512f6e23691b3084a",
    "pat_sf/210": "979cbbc392d15105e90685ae39db81a6dede9d7f0315a903ecdd3e1f6498f9ba",
    "pat_sf/211": "19d377a641db49383103b0938e679e8f8c06e5d7000eeec880b03d646ca9958a",
    "pat_sf/212": "a05dd9a6998da579a3d0dc57f720d9e9b61c51c93e162e6bde51e7f68f320f4b",
    "pat_sf/213": "5b48d2342476979065d8be21018583ce0dda4f94372893afdf84b96cae14fb86",
    "pat_sf/214": "f2b8173a27e21d5dc372d6e2b4d883083de1e0a7f5ce47a29b7312ebefa6629a",
    "pat_sf/215": "a428260a94b3ee90a66072781dfdefdaf7577d6aebb6c6b34b9ba3bda851fbc5",
    "pat_sf/216": "59caaaa738b24db60686dd11d241e33ad207454efe69a76546141592ea7ec536",
    "pat_sf/217": "1ac9b6aba0fdef81c9accc37438a3893efcd4ef3820e4d1b4dd3d93b248c204b",
    "pat_sf/218": "95117d289c71b7f9dd2cc33b07f16e920e263af33c772ffa54ace59d143ebfb1",
    "pat_sf/219": "b71dc0ec935250c1f4bfadbf0154c17015b6289ac0be44e8c56cac2440c4ae09",
}


@pytest.mark.parametrize("kind,seed,sizes", CASES, ids=[case_label(*c) for c in CASES])
def test_probe_matches_golden(kind, seed, sizes):
    assert probe_digest(kind, seed, sizes) == PROBE_SHA256[case_label(kind, seed, sizes)]


if __name__ == "__main__":
    print("PROBE_SHA256 = {")
    for c in CASES:
        print(f'    "{case_label(*c)}": "{probe_digest(*c)}",')
    print("}")
