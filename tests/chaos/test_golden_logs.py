"""Golden chaos logs: the equivalence oracle, pinned.

Each stock profile's episodes 0–4 at seed 7 (every other knob at its CLI
default, i.e. ``python -m repro chaos --seed 7 --profile <p>``) must
reproduce these per-episode sha256 digests of the episode log. A
refactor that claims "same behaviour" keeps them byte-identical; a
change that alters wire traffic, virtual time or fault outcomes on
purpose re-baselines them once and says why.

The same episodes also pin the traffic counters the experiments read:
per episode, one digest of the world's ``StatsSnapshot`` (``by_kind``
sorted) and one of the ``counter net/...`` lines of its metrics
registry. The logs only show messages, retries, recoveries, lost
replies and duplicates; these catch ``dropped``, ``unreachable``,
``batched_legs``, ``latency`` and the per-kind counts under faults.
"""

import dataclasses
import functools
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

#: per episode: (StatsSnapshot digest, ``counter net/...`` lines digest)
GOLDEN_STATS = {
    "classic": [
        ("def8496ad27c558890c8f8169d79870fec03e5f6e6710b15ba0d48b50a11f35b",
         "e9ba8628fdf76ec29edbaf335087aca2d492f290cab1eb4f47efb94ca0e01908"),
        ("0038af2a9e2a35e3409c9861daf043efc78d8c56afb42504314814da8ddb950b",
         "e58bfb5ebbd2f67265f10836d1f6a41a1fbaf46b03dc50ab3aeb8e98c8a0f0ef"),
        ("457ca80305465d36d9e66a62e5275f1cab36170e050661f7d5ccc8916734a678",
         "885fcd7b07cf496fc2dffa368f651fbcc71433d0cc52f87eb023f3767e307f79"),
        ("2999a829d231ca4a9f128d164b05100257ecec831bd3fe3b8687269816cb07b8",
         "b4805afe0146a90f987a41ab3529f89116760604c3a105657ba70f86f4d1df3c"),
        ("7e53cac777d21075e8d0bed1bf0bda86b08eda8d71eabdcbde911c3005c7e4b5",
         "cb0131a729b2bdac97ec822dad94e2f853247ac24dd104409057e7c7cf577146"),
    ],
    "delivery": [
        ("821192b0526bbf93cb468ed7942488fe8ccb5069237d91080be12dbed68e23c6",
         "71e1411cf63ded89435f3309561c846d347e215acfb963867b5e14d5ff070767"),
        ("f20879c815db91bbdd2b6cba743cda0aab65617a3fdbc5447d1345df6161ad91",
         "c1c9a69bf843fffd2f8995bd43895114e378ea0ccffbd453dde088eb4d3757e8"),
        ("2d5dacf861ddf350541058dab8f2ac5c370f4eb9511933521a3b9a882bfa4241",
         "c1f33f46c0b3abdafd6262564943fd5586f89fcccc6cd08383e7bd52e79a1216"),
        ("944061ec6d220cab774e972001f8b05ea28555adc01a80b6bbd18ed359aaa013",
         "1092e993b83f054c3968e7376740e1039247fcabb7d3fa3bc1697194173345dc"),
        ("6d8dbc03755f5b6dc3b9949fab3ebff7ca774aadfb413c711096addf1f97bb36",
         "e1384b9b7c1f44671fb81a7ec57d75e4ca4958e6795946ab43f92f54316daaa0"),
    ],
    "gray": [
        ("c69b91c0d5f1606bee290cbed520e4f85bca67b0bb651a120f972511d6913c62",
         "8d84ba0d30c3f93c99ae3650d5ebd18f8a83712194da166f1bfd1362f4ba1581"),
        ("20fb96b538f568386daa50fcfb732541dfd6155b4b65d1d9c89936cae16d36e2",
         "2a745fb7ea8af5edc5e7a912b9bb26674051403239d47e4d4fa01d22827950ad"),
        ("ba07087b42b08b9b252d7fa2c79c6c3717a4899e098ae5de0d350583f7c7c822",
         "e17005ccbb4d6e932a8d1b520e46984e5b81665f197882ca67aabc294a7e74a9"),
        ("e3b0c9ccbbfc5915af03517f30ecb94afd724b1aa5f43ac831b011beb427b6c7",
         "c7e5b2344ae4fd99e12664bd6af53a95f42a7e07dc6f954cbabff6aab0debf78"),
        ("acb9acb531678dc145b66b80df18787a1a0714d4394da9b16ee0a89c5bd401f8",
         "64e5ba177b0d10695ebdc6c15e49b8144f33e30ab8f8b505fddeff7df55f124c"),
    ],
    "mixed": [
        ("c09807009b0d215e13d56160184696123015b083a17214755ceefc20f71f660b",
         "73b214151591bdd24109f114b9957d506e6a89046e4dcc8bd7d1ef11e03a83b7"),
        ("052adb10ad74c315932a2d56998bbb2ad8dd2952b08f77e8bb86f000f545037c",
         "da8f841f93707e9c1110b545c90ac135441fb887ae42c8e5add34eb86cd4c5a3"),
        ("330a14a656f70af29ce01303d6e1b8f1153c503d7f258d4a2df35b61d8d756d5",
         "d8e071bca49a7086e56c276abcb5127a89ea9541709426c66ad6b75f1506b59e"),
        ("5ed112862d7638dcbc01daa92e4a3b73f6687d0263e124bc5660bb935eb3e3a1",
         "179f6594299fb05d60300f8113ad5c35451ea812cf74e3453bca46d80cf34034"),
        ("6c27a44b31e957c07f54580e85d2d26f62ee81bdac687f1842e6fa2fd959c8db",
         "e031e91c6c065a4afa4649362cdf1a6f279a5f4faeedf4e0ee3b61fb5398f841"),
    ],
    "recovery": [
        ("473dc8e7f22a117d963da6b9cdebcf2f73ff75cdc44ad36ab66b750e536554a8",
         "2b85ab81d6584a93ea6e2e62fea10b02922739a7260cf5c5d26803a19d00a536"),
        ("411eb7a01c6691655ff7f446a39639a02fc03a65132e83db40f4665ada7d4e7d",
         "371d9e928900dfcb6a41681232dde44889761e87065cab801cb8aaad648725aa"),
        ("6ec1cd8b6190119b3e4b33feab765352d7ee1c19a81af9444c8398e8a26e661f",
         "972cad9d7452f095d8ef34aa0c8528ad2d8d7ecd7c9dff75021bf8f2f934d822"),
        ("3d6ad5ba0bc8b1d8c4e2dda93c64b92dc21d2ee1d53b2fc8b5b6b32a7274c088",
         "4d81e4c1f3d5c2ab6a29303f6da58de30a1b0ba99d24e672c307c3880eae5ec3"),
        ("b1ea66f23aecbfd0b0b864d55a685ac07c0cd83f40dbd494e37133240edb5648",
         "a12f2ab8793385c18696c5cbec36ae6bebe5cea8ed040e297b6f9d44fada4b05"),
    ],
    "sharded": [
        ("3592fba597a4c7f80ff9b7c33f653ee70da62a3fe12dc2a0267337c2c04649fe",
         "785db66afc1e723dc1735369ae098b338299def855017d27701d190d7de95835"),
        ("362e186e4fee092969142571a88de7de055ba469d61549fe92f7dc1ec4933edb",
         "7db65c14557564bfed55c2830aff41a646f880e581905e249ea1ee20f3dfb0ba"),
        ("762e8b75f4419851e74135c223ef3577ae7aa6f62582d3d54448e622aebb41d3",
         "d68131472803330ed9bd3563726ed648d4ba66e714bf33777e72f8489a5d147a"),
        ("5baadab006a9a6597d6f974e1b3966bf4bd75c5f52d34ceb8fbf6c44ad8fba77",
         "b437f09cb23c532a33138e0d4cf112497f9f0e47392b6b9c2b756b84b43fd939"),
        ("b29383a2a5a385c30f1b7e2de6b5beda2a5edbb50cee85a8acc8abf64ee7ee66",
         "7c2c99b5b7a7cc61fdf6c1caaa4c077f6839621b3efe421d6975b7c2b9a1ba50"),
    ],
}


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _stats_digest(world) -> str:
    snapshot = world.stats.snapshot()
    fields = dataclasses.asdict(snapshot)
    fields["by_kind"] = sorted(snapshot.by_kind.items())
    return _digest([repr(sorted(fields.items()))])


def _net_counters_digest(world) -> str:
    lines = world.metrics.render().splitlines()
    return _digest([line for line in lines if line.startswith("counter net/")])


@functools.lru_cache(maxsize=None)
def _episodes(profile: str) -> tuple[tuple[str, str, str], ...]:
    """(log, stats, net counters) digests of the profile's pinned episodes."""
    campaign = ChaosCampaign(
        ChaosConfig(seed=7, episodes=len(GOLDEN[profile]), profile=profile, shrink=False)
    )
    digests = []
    for index in range(len(GOLDEN[profile])):
        episode = campaign.run_episode(index)
        world = campaign.last_world
        digests.append(
            (_digest(episode.log), _stats_digest(world), _net_counters_digest(world))
        )
    return tuple(digests)


@pytest.mark.parametrize("profile", sorted(GOLDEN))
def test_episode_logs_match_golden_digests(profile):
    assert [log for log, _, _ in _episodes(profile)] == GOLDEN[profile]


@pytest.mark.parametrize("profile", sorted(GOLDEN_STATS))
def test_episode_stats_match_golden_digests(profile):
    pinned = [(stats, net) for _, stats, net in _episodes(profile)]
    assert pinned == GOLDEN_STATS[profile]
