"""Golden digests of the stored-tensor layout and the seeded initial weights.

Weight files carry no schema version: a PATW file written by an older build
loads only while every tensor keeps its name, shape and order, and a seeded
``init_params`` store stays the same only while the schema keeps its order,
initializers and fan-ins. These digests pin all of that, with the parameter
and MAC counts, for every variant and study arm, fused and unfused.

To regenerate after a deliberate layout change, run
``PYTHONPATH=src python tests/test_layout_golden.py`` and paste its output.
"""

import hashlib

import pytest

from patnet.config import ABLATION_MODES, VARIANT_TABLE, build_ablation, build_variant
from patnet.counting import count_flops, count_params
from patnet.fusion import fuse_model
from patnet.model import init_params, iter_param_schema
from patnet.weights import serialize_store

CASES = [(v, m) for v in VARIANT_TABLE for m in (None, *ABLATION_MODES)]


def case_label(variant, mode):
    return variant if mode is None else f"{variant}+{mode}"


def layout_digest(variant, mode) -> str:
    """sha256 over the ordered (name, shape, init, fan_in) schema and the
    parameter and MAC counts, unfused then fused."""
    spec = build_variant(variant)
    if mode is not None:
        spec = build_ablation(spec, mode)
    h = hashlib.sha256()
    for fused in (False, True):
        for d in iter_param_schema(spec, fused):
            shape = ",".join(str(int(s)) for s in d.shape)
            h.update(f"{d.name} ({shape}) {d.init} {int(d.fan_in)}\n".encode())
        h.update(f"params {count_params(spec, fused)} "
                 f"macs {count_flops(spec, fused=fused)}\n".encode())
    return h.hexdigest()


def t0_init_digests() -> tuple[str, str]:
    """sha256 of the PATW bytes of the seed-0 T0 store and of its fused store."""
    spec = build_variant("T0")
    store = init_params(spec, 0)
    fused, _ = fuse_model(store, spec)
    return (hashlib.sha256(serialize_store(store)).hexdigest(),
            hashlib.sha256(serialize_store(fused)).hexdigest())


LAYOUT_SHA256 = {
    "T0": "492a1ef4fa4bc4228bb2e6a6e13cfcfeb5c12cef72b85474792089e4f78a35a6",
    "T0+full_ch": "1e29ea7a5521d07bad361ea92aa9103de4ed6f3f7e738ba0823f9030440dc971",
    "T0+full_sp": "5120a707df211563db81aeb49fe4f1ece6c87451ada19df1bc1b0e045e84c6f5",
    "T0+full_sf": "8bbdb30b929c07ee9dead5276b028268f0bcba165c57d2d0fb72afaf814a20b8",
    "T0+no_patch": "78baf3b4b7e492bbc10ea57ed9bf22f78221f9f0433450a8f830700dd5705f61",
    "T0+no_patsp": "755914e8a63ecf25ab96dc73080c57909b7cd758d682503be006a0dad32dc725",
    "T0+no_patsf": "30d5608568df9d8ff7fd6c670a1a0cef2b817785419a9b6ce2b8ac30a8e1d22c",
    "T0+conv_dense": "d5c9c6a852634d86d8a771f9f4a18d82058543dbcaa3f58c62f774b96a3bb6c1",
    "T0+conv_dw": "554221c294b39db1cd1a69c509fd4326b1942838b5c308a970e5a07559f70183",
    "T0+depths_2284": "56479fb337ab1654c2143a7ddad9a49b540e13b4817eb74a7940a2eb52a72b88",
    "T1": "d6f3f813c1758151c0001fe1a2a41d4695b61d4d179fbbfe092283d162251e6a",
    "T1+full_ch": "8bd392e9b987a1c3438e2828b2f9f1397ee61b8d39f577f689cbf846447e86d6",
    "T1+full_sp": "9fbe007821ac82a7787ebd981053d3333d4bd311d0597f3e1cc8cc0e89452be8",
    "T1+full_sf": "4d7ebfb08220fe06e4cfce2a534ecb3773eeff28a3595f7f709d6516b4ddcdb1",
    "T1+no_patch": "4b85236501c658357f6d4151b210095c0addd41df132cc8d2c97a48f1070be9a",
    "T1+no_patsp": "7bf615d54b0c51cad1fc9309ec2c81d9746475af215cc1324351c46086a3a22d",
    "T1+no_patsf": "ffc93dbd288b0bd7aee8494702886aa2311b2978229d8bc7ec099ae944ce537e",
    "T1+conv_dense": "c641a4a4ddc5f3acd4c5bed7bac1295f86a327165c3a3c464648dc92676a47a5",
    "T1+conv_dw": "f88bfa1dcef8f13256043e2fa97596e13f5ac83941570dfab61948b73694e94c",
    "T1+depths_2284": "8cecc0729347689e2e6c8298f4cb4ff28f2cf2ef604cee837bb2eafb03295d75",
    "T2": "b6526a614abb388461ac4e9f205eb09e1d19433c4b28621ffbccc9d815b8e602",
    "T2+full_ch": "d53449f5a9a1961b191053bbe516d905755b54fecb2e482d06bd8f78c810c952",
    "T2+full_sp": "f476f6c0ea31cbe0edd8162808296f469d7dcf9af6383053665a2fdbed7c4044",
    "T2+full_sf": "f117cbfaa7a784fa54de55f13bd25f8d011d31d0e43b60c9ee9b08d1530043db",
    "T2+no_patch": "b0803ee3c3ab98e1f0415183da8e9bb9e0b844c69e14a83f48aed8a0129aa6ac",
    "T2+no_patsp": "3c4e57849fdeef7c799a9ced5dcad58ba72e811a98021558c001d42f6f30febb",
    "T2+no_patsf": "d5ee4eb447a30b5064d60d1d4207b0a042ae1d95971bb1e18eedb8ca5800be0c",
    "T2+conv_dense": "df01532614a7385d28d81e2591bb3da30145201ec0d2476a2add17eed8fcce37",
    "T2+conv_dw": "91d78ed608b6a02020c99d24964c5a51abaa2fda1878c6e196e4ae5538f31f05",
    "T2+depths_2284": "35df3dac2686f5d9a5c98c28b98bad7b8490f9c8545cf9e0a71af14fd47d80f4",
    "S": "c965246b6eed07aa818e77cd7b310c101212d103b3af0f3404203adc3d1e41bd",
    "S+full_ch": "e96c4727976c03619dc9ed9da6bd3623a7d99f75adb8665d24488cd6513c3718",
    "S+full_sp": "cc7f24d23191398949fd70ece919d62d02e34acff23f24caf61e82aa98fc73f7",
    "S+full_sf": "d5809efcdf21d4dfd262d0f9ffaca8f159ae40c10c83e0982c21c435b19640c8",
    "S+no_patch": "0db21cfcf3185d006adb54c604b5c82104db33b99564c94f9ff9cbeee79db08f",
    "S+no_patsp": "86247e884ec52ea41e3b96def98a739a4fc53bbbd473d580d10456eb2407b748",
    "S+no_patsf": "3db2c36d770639e25242578d941fd2d4cf64bd5d41deaf6ba3407fd2a783545b",
    "S+conv_dense": "ef0e0d3f1bdb7927f9d6128a0c5eb99c6247288fb96a2a790fa3cd3e2fcc3662",
    "S+conv_dw": "82aa10d2b11e17cc37c4927796e4f3704778f4efaffe90ec6ab5c52db47718ce",
    "S+depths_2284": "4f6aa3fab39f562c315256bb6d160812b752eacb81935f117483f73a3a32ed3c",
    "M": "7a4ce7b91f20f8e037c6915da843a1bbb452a6d4f69df254426afd04e93bbb71",
    "M+full_ch": "ea5d4d27f1f94d3498592c5e8467e13484d0cd1915a8d0c74c19e1938d85d4d9",
    "M+full_sp": "1270d9e09557b7cd90487f0938c96cef6859085d454754fdadfdbf3861b6f22d",
    "M+full_sf": "9bfba2c7665d6ea1a19e4d6345c9bff341ea193151bda42bb6321aa9c97bd6ef",
    "M+no_patch": "963f0f47894bac74fd3085ed092d390cf7fb56fe1914933a79f80824466c7630",
    "M+no_patsp": "c9035f10ef70f7394cb459b87156af05320303278d8a7ca42e4029d5665fd350",
    "M+no_patsf": "80d0d17fe75bad203b8ad3ce3f2b512a0228ab1a68997a6d89d5f807cbc20dc2",
    "M+conv_dense": "522c54145e103b1221311a8c9021ec64c8d301168626670585a21db36a7f027d",
    "M+conv_dw": "642ed2948cb29a535a3c40b18a8cc46e90072ac1f252620759fd32ab22da6d8e",
    "M+depths_2284": "84e1f8a19fbf6558d2a406da9c1d077352f6a477214fd709e571e94da5d0eb33",
    "L": "2f940c7dcedb387d2dd9ec59d2925f7a3f0ed4e82a1a7cf51f08318615c8ab32",
    "L+full_ch": "8ecf480a9a384a73254231c9e00b9c630922d3a73e581b9b015de562f1d52687",
    "L+full_sp": "076a58e24a295b7f0993fc5d48669e5b2e7fc4514bdc9a666a260e63b673f267",
    "L+full_sf": "19c2dc8eb679a1c7fd7aeae91a6ef0d36e712ee8e860c27239b30dfc7208ae55",
    "L+no_patch": "4ea718003d4024dca12e039ca1afeaa1a01409dde732ab9320f835edf0a0890d",
    "L+no_patsp": "82aaf02043cc8b189e25c75220cea886b7937639c97dbf4aaad64dd9d9dbbbbb",
    "L+no_patsf": "dd3ec4999fa4e8dd4ecf40cb4b21be597a162ddc9117399a47f5bdfbfad9690d",
    "L+conv_dense": "b05eeb8cd94ab2c408254768b907c0a4a0fdac8199df45cec65bea4ac16ab33a",
    "L+conv_dw": "f86ea8bc917fbd7828c785fba536ba02c561ee9a9e602173690d4576038af2ad",
    "L+depths_2284": "12eda9aa1b0258d83542b4de643b7c6c865a4b324a812f7508f0cfb1d1245f96",
}

T0_INIT_SHA256 = (
    "7dba1edf2b6417081578ddb091294575d4cb30c50d819456b72d54394121999b",
    "1d6b24c9747406f3ebca65f56cb9875d9718c398f9b0b1d157b4daa8311ff3e6",
)


@pytest.mark.parametrize("variant,mode", CASES, ids=[case_label(*c) for c in CASES])
def test_layout_matches_golden(variant, mode):
    assert layout_digest(variant, mode) == LAYOUT_SHA256[case_label(variant, mode)]


def test_t0_init_bytes_match_golden():
    assert t0_init_digests() == T0_INIT_SHA256


if __name__ == "__main__":
    print("LAYOUT_SHA256 = {")
    for c in CASES:
        print(f'    "{case_label(*c)}": "{layout_digest(*c)}",')
    print("}")
    print()
    print(f"T0_INIT_SHA256 = {t0_init_digests()!r}")
