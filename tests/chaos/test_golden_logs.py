"""Golden chaos logs: the equivalence oracle, pinned.

Each stock profile's episodes 0–4 at seed 7 (every other knob at its CLI
default, i.e. ``python -m repro chaos --seed 7 --profile <p>``) must
reproduce these per-episode sha256 digests of the episode log. A
refactor that claims "same behaviour" keeps them byte-identical; a
change that alters wire traffic, virtual time or fault outcomes on
purpose re-baselines them once and says why.
"""

import hashlib

import pytest

from repro.chaos.campaign import ChaosCampaign, ChaosConfig

GOLDEN = {
    "classic": [
        "a659e27181f29fbf2274ba596eb71f1e910ec1ef6ea8bb1756325667df7a1b8f",
        "ccb181ce786b765e3f69cb906eea92060247d9744762edb320b8420630174be3",
        "4747facbb5a1051d4cc0030798b543e31878c8181a516bd458ebcbd910ed00ee",
        "64eb2b1bdf2592b46468c605350563f03362b5835eb8f325f0a8dba3039d9621",
        "b94e1425075076a5aba0dc7139791ccc37086cb8dc42808b698987b6d79d43e7",
    ],
    "delivery": [
        "1464e7d0d642bbdaf988e19035a245e548fac7d60bdc52237f0cb95a56a09f88",
        "0a07f8007971b1813e96a9244b181108305ca407fa0a738107683e337b9c95c8",
        "f05202bdc9e44eb8cbc56492a53f9e959c516687619c7c463777775d1ffc3228",
        "fbc93656f4ee5aa2bea64ec79018ba64a6efc92df16c228ee7506f311ebf6eda",
        "8287416add18fbac49a9b9d266320857df7978829850d820c3af4e316fe87c3f",
    ],
    "mixed": [
        "39ff4f7fac7ad45fa0b0dd9a345961d36b3ca36d04d5de68616a114be59ef3cd",
        "faad1b318d3925637dd77f578632dcf00b828807feb172fc894de460a33694b6",
        "20a5c5a49a1d1b3ff0bd9ed9572c7f15a4f0cea1ebda0aff40d83039d8d0fd7f",
        "244c69a826e10f3cd87cc78e10c60b12599f138b49f60989b9c14c371ad7f037",
        "09ae1740acd0e3d3212183c7c2d4c22e9a18d95c115f0df5003352cf17a31ecd",
    ],
    "recovery": [
        "e18d6c10c8d5c19ac5cfc86f3d5b6e9a3c0ba8143d58b06b7f53e2c2e423c4fc",
        "f67997987023404df6a179e26d8b7679a7086ae9bda7d67c3f34873a0fa8c8bb",
        "ae77636c01a236cbea6db70ab84ad5a5c341262fffb7d5983705b63ecf6e96d3",
        "90db965e47a2a9ea9249fe424934068f68dcb43433a1fccf22a8d26c8f0a256e",
        "2123db9a868b9ace898ba9030e2b2f694a2b704659a49eeb91af0797e3f9994d",
    ],
    "sharded": [
        "4e5e5bed8cb882aea304234abaddd92f73ebc926f42e8db51dde58ff37234d50",
        "6355e4ab6cae8ac6eccde06f6721490f83953f56bae9c4d8eff53e4996c49717",
        "37a9d65c196d6ce6fa6718d53eb168f63c018889dceec16076fa8f3ae1840863",
        "4eac23bb1cdd8a9741fad6d7fcf7e4c218c40978bf386cb9af73034e54ee0ec3",
        "40bd0ae6dd5c046f4f4213e22a2174def1bf31a600b01ba3cbf51cf64f0a3a17",
    ],
    "gray": [
        "27c167cc3f32c4cba261d457d906eef94f01144c3e725b4c31c22d07258869a4",
        "b7fb6583f2da495c10febd91a507ff0f05984760e46563c1825bf8a43613096a",
        "9fac1ab9614243f46f5bd9b46365fc96e86a188dec6601682811405eb00ca639",
        "0d5af6146663307d845da8695fea438b41aa4840a938c552a5502555c6b93cdd",
        "3224c3760feafcdce9f6f10c4f4f2e582b02c2f74db45c4bfa0335e6f7a15d41",
    ],
}


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("profile", sorted(GOLDEN))
def test_episode_logs_match_golden_digests(profile):
    config = ChaosConfig(
        seed=7, episodes=len(GOLDEN[profile]), profile=profile, shrink=False
    )
    result = ChaosCampaign(config).run()
    assert [_digest(e.log) for e in result.episodes] == GOLDEN[profile]
