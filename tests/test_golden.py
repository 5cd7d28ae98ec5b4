"""Golden regression pins: exact results for fixed configurations.

The whole stack is deterministic (no randomness, no wall-clock), so these
exact numbers must reproduce bit-for-bit on every platform.  If an
intentional model change shifts them, regenerate with::

    python tests/test_golden.py   # prints the new tables to paste in

and record the reason in the commit message — these pins exist to make
*unintentional* behaviour drift loud.

Two layers of pins:

* ``GOLDEN`` — three headline numbers for a few cells, readable at a
  glance when something drifts;
* ``DIGESTS`` — a SHA-256 of the canonical ``to_dict()`` rendering plus
  every per-epoch record, for all schemes x all workloads on four
  machines (direct-mapped, 4-way set-associative, sequential consistency
  and a 1 KB cache).  Engine parity cannot see a change both engines
  share (the per-event scheme path, the network model, the accounting),
  so these absolute pins are what guards it.  CI runs this file under
  both ``REPRO_ENGINE`` values.  Every scheme with a batch kernel is
  also pinned to the same digests on the fast engine with epoch
  pre-apply off, so the kernels' per-window span path is held to them
  as well.

Migrated traces, which no digest above covers, are pinned through
fig18's experiment digest in ``perfbench/golden.json``.
"""

import dataclasses
import functools
import hashlib
import json
import pathlib

import pytest

from repro.common.config import CacheConfig, ConsistencyModel, default_machine
from repro.coherence import SCHEME_NAMES
from repro.sim import prepare, simulate
from repro.sim.fastengine import FastEngine
from repro.workloads import build_workload, workload_names

MACHINE = default_machine().with_(n_procs=4)

# (workload, scheme) -> (exec_cycles, read_misses, total_traffic_words)
GOLDEN = {
    ("ocean", "base"): (83865, 2360, 7876),
    ("ocean", "hw"): (8124, 92, 2331),
    ("ocean", "sc"): (84165, 2360, 8891),
    ("ocean", "tpi"): (14149, 241, 5276),
    ("qcd2", "hw"): (9397, 84, 1627),
    ("qcd2", "tpi"): (18823, 204, 3553),
    ("trfd", "hw"): (10860, 153, 2078),
    ("trfd", "tpi"): (12815, 205, 2626),
}

_RECORDED = MACHINE.with_(record_epochs=True)

#: The digest grid's machines (all ``n_procs=4``, epochs recorded).
MACHINES = {
    "dm64k": _RECORDED,
    "4way64k": _RECORDED.with_(cache=CacheConfig(associativity=4)),
    "seq": _RECORDED.with_(consistency=ConsistencyModel.SEQUENTIAL),
    "dm1k": _RECORDED.with_(cache=CacheConfig(size_bytes=1024)),
}

# (machine, workload, scheme) -> SHA-256 of the canonical result rendering
DIGESTS = {
    ('dm64k', 'spec77', 'base'):
        '11afd441eff1fe0a1d120346a0d449f2134bd9f7b763bb098bb5a2212a1ccc33',
    ('dm64k', 'spec77', 'sc'):
        '6132c4195cc00b6add7380c1f8467a853f13ceedc051021a368708d2c317eaac',
    ('dm64k', 'spec77', 'tpi'):
        'd7ff8a20e54014d0c098afcb8c5bde45e63bc4057c80e37a09c4d13ea14e75ab',
    ('dm64k', 'spec77', 'hw'):
        '19c0e47618b811ac8ed8b8ed628701ef6251d0261f28c9a93486061d9ef4449e',
    ('dm64k', 'spec77', 'limitless'):
        '8d9ff94ef3abb2142e2343bcb9db15eed90114d4328a478ce0d0c745d77429ee',
    ('dm64k', 'spec77', 'update'):
        '96a7586c7b8d587987bea77fa10164138d9117aaf5d7d3155650172708e5be60',
    ('dm64k', 'spec77', 'tardis'):
        'ecdd9d3748cbc11cfa1c7d40b38c7bbd77432af37b6a32fbeae1c353cd5774ed',
    ('dm64k', 'spec77', 'snoop'):
        '6870ce6b592e5b2ee53f7f13a4c04ba319a4c6106cccd3f479fb1b964c7b8462',
    ('dm64k', 'ocean', 'base'):
        'c5c5450ca7849072181a864d8e9f58cc320ccb8bff9b941fbfbbb016a1ac71da',
    ('dm64k', 'ocean', 'sc'):
        'a2df023c60f672801c773ba2b30f83051d4c8c084ca4ae308c73b322af27bf77',
    ('dm64k', 'ocean', 'tpi'):
        '2a3702175e86b2f38bea9faa0ff9ea4f78390201501443dd55537ef8bfafe634',
    ('dm64k', 'ocean', 'hw'):
        'aa9e450c99e7a7cb06205480a094381fb7d0024c39f98f0bbb350b75f5c58031',
    ('dm64k', 'ocean', 'limitless'):
        '3b949cd041babdb5db8882ca9ae8bde673b19048f652af8ed26185dbe9b8c4b4',
    ('dm64k', 'ocean', 'update'):
        '294bd73ef953f8a5cffdabef2f006f8b65cd0ad4821170c867281d5af4ec3903',
    ('dm64k', 'ocean', 'tardis'):
        '5d79c7cb780056f1e8696aeb8179f86deb67f4034d39f484f52a70052296b87d',
    ('dm64k', 'ocean', 'snoop'):
        '2ff36137556fc30af84e0a37733e7c709620e6c525f86b8bfa30455e22bbb4ec',
    ('dm64k', 'flo52', 'base'):
        '76ff03aee29da03a47beb575f2dfde827100cc465294675ac654416719f79bbb',
    ('dm64k', 'flo52', 'sc'):
        '6729b74cbc3c055de59f1137400118f9127130ee2170aa8dd288908c558724f4',
    ('dm64k', 'flo52', 'tpi'):
        'dd0d9ce0219ca4a492c9683ba2482007753e6e34166120543a193ca6103cf5c5',
    ('dm64k', 'flo52', 'hw'):
        'b33a9aa20e0c9b0db609cf776e897f589f215c0e3596a76176de4b5797af12ab',
    ('dm64k', 'flo52', 'limitless'):
        '8dc70d79a2cfe21061e64c70be0a9b4c3f965fbae831758d724fac9c90b5c2de',
    ('dm64k', 'flo52', 'update'):
        '5ae237a7836e3e1cfedf0283b7ba992886024c410fc857be5accd2b81f6f3a71',
    ('dm64k', 'flo52', 'tardis'):
        '87d3f518f6996fb7ba145c64351c92ae21ea6b369d52a04eaecf43ceaf2a7806',
    ('dm64k', 'flo52', 'snoop'):
        '3c21537fae30169a52df49494c95185b26a3077d0dee2829c3e3703155d70578',
    ('dm64k', 'qcd2', 'base'):
        '7b02189dd4c7bc03efd159081de82e2e0b5f48f2d8891194ebb09d1585c60c58',
    ('dm64k', 'qcd2', 'sc'):
        'a26beb03a66902217e969833811ab4a60e62207494a087c606b19b30b04d3ca7',
    ('dm64k', 'qcd2', 'tpi'):
        'f4c13be23cfeeac4601ee35982d057eab1ac80b6269537f2286a4d085d52a97a',
    ('dm64k', 'qcd2', 'hw'):
        'f0a3e2eaf466b1a8a86e99c43d8eed03251479bce4637fa0f9c08104cd0a9581',
    ('dm64k', 'qcd2', 'limitless'):
        '464432e36042d9282d587751224c1489a6ca9925df5d84c8eff375bb72194297',
    ('dm64k', 'qcd2', 'update'):
        'a170be050dfff4d2f4660b8616d50246509e838af72cbabbb6ebc8464c80e350',
    ('dm64k', 'qcd2', 'tardis'):
        'd12fd60ed443d1d34447ff3c6adc9af4d04c33e1770ebd76a0ba7d3759fc0d4d',
    ('dm64k', 'qcd2', 'snoop'):
        'de728ab7a2835bf89a5cd7f38351c5e928ee2eab643b65f3d5db2034e47bfc75',
    ('dm64k', 'trfd', 'base'):
        '228f12ada178c5982c522066019d54abe2916dc984caf9842c7f0435d3f9ffe8',
    ('dm64k', 'trfd', 'sc'):
        'c9b0852d128a85bc4bd3527582d0dd5d41080625912e4df926a5e9227fd71416',
    ('dm64k', 'trfd', 'tpi'):
        'c145484225eb097ed4dffa46a47d042429dbe4bdbdfc5cc050d1e283de586ccd',
    ('dm64k', 'trfd', 'hw'):
        '1e1a9e552e6fa6e6a82a12395b9e531ac7da96392fd95698574d71f135e4e318',
    ('dm64k', 'trfd', 'limitless'):
        '36c7dc96a106b45db4c46e50c306f881caa1e40fe934068dd90d09b8daa21412',
    ('dm64k', 'trfd', 'update'):
        '7e3a0b64dc8ea1dc08eb9556175830158946722d3d881b658235d6e4c81e9f23',
    ('dm64k', 'trfd', 'tardis'):
        '1c04ea4c52994fc23f7b3f1a1184d6f84a60214c8f0b07712a6516368cb3fb21',
    ('dm64k', 'trfd', 'snoop'):
        '8facb299577f9ac950152cc8563a40792fe97ebdeed827c1e210427f7fd542fb',
    ('dm64k', 'arc2d', 'base'):
        'e1aedc60f000029547bb53501df2e5fc5f15ced4fe1f3483f0650192bb466365',
    ('dm64k', 'arc2d', 'sc'):
        '21fb470e732307bc149421c55942cef1ceac4b5d2a3555a8c9e07084ecd0123d',
    ('dm64k', 'arc2d', 'tpi'):
        '56f382c6f01132c38e4bd5dffd64394e4e7a83e9fffce2e61adea0d752a7d916',
    ('dm64k', 'arc2d', 'hw'):
        'f8e54f65a85f4d9f52c7fbe6561fc1019c31b07c1bee21ef482d70fe12052123',
    ('dm64k', 'arc2d', 'limitless'):
        '46d40cf744ba18be7ab21b364abb2c4dc4563364507d28544596b2f43b314023',
    ('dm64k', 'arc2d', 'update'):
        '126db3beb46bbc7adf45fb9c11a23bf1856e96b041947ebf429f09bd1cc5179c',
    ('dm64k', 'arc2d', 'tardis'):
        'c359423d583ad79bd7880851c14e53e17a14501ebde0f18b9ec948fc9d4a9976',
    ('dm64k', 'arc2d', 'snoop'):
        '3a6617ac7c9b7343d7e5244e2bf99de771464d15c3514f51af910d8485060eac',
    ('4way64k', 'spec77', 'base'):
        '11afd441eff1fe0a1d120346a0d449f2134bd9f7b763bb098bb5a2212a1ccc33',
    ('4way64k', 'spec77', 'sc'):
        '6132c4195cc00b6add7380c1f8467a853f13ceedc051021a368708d2c317eaac',
    ('4way64k', 'spec77', 'tpi'):
        'd7ff8a20e54014d0c098afcb8c5bde45e63bc4057c80e37a09c4d13ea14e75ab',
    ('4way64k', 'spec77', 'hw'):
        '19c0e47618b811ac8ed8b8ed628701ef6251d0261f28c9a93486061d9ef4449e',
    ('4way64k', 'spec77', 'limitless'):
        '8d9ff94ef3abb2142e2343bcb9db15eed90114d4328a478ce0d0c745d77429ee',
    ('4way64k', 'spec77', 'update'):
        '96a7586c7b8d587987bea77fa10164138d9117aaf5d7d3155650172708e5be60',
    ('4way64k', 'spec77', 'tardis'):
        'ecdd9d3748cbc11cfa1c7d40b38c7bbd77432af37b6a32fbeae1c353cd5774ed',
    ('4way64k', 'spec77', 'snoop'):
        '6870ce6b592e5b2ee53f7f13a4c04ba319a4c6106cccd3f479fb1b964c7b8462',
    ('4way64k', 'ocean', 'base'):
        'c5c5450ca7849072181a864d8e9f58cc320ccb8bff9b941fbfbbb016a1ac71da',
    ('4way64k', 'ocean', 'sc'):
        'a2df023c60f672801c773ba2b30f83051d4c8c084ca4ae308c73b322af27bf77',
    ('4way64k', 'ocean', 'tpi'):
        '2a3702175e86b2f38bea9faa0ff9ea4f78390201501443dd55537ef8bfafe634',
    ('4way64k', 'ocean', 'hw'):
        'aa9e450c99e7a7cb06205480a094381fb7d0024c39f98f0bbb350b75f5c58031',
    ('4way64k', 'ocean', 'limitless'):
        '3b949cd041babdb5db8882ca9ae8bde673b19048f652af8ed26185dbe9b8c4b4',
    ('4way64k', 'ocean', 'update'):
        '294bd73ef953f8a5cffdabef2f006f8b65cd0ad4821170c867281d5af4ec3903',
    ('4way64k', 'ocean', 'tardis'):
        '5d79c7cb780056f1e8696aeb8179f86deb67f4034d39f484f52a70052296b87d',
    ('4way64k', 'ocean', 'snoop'):
        '2ff36137556fc30af84e0a37733e7c709620e6c525f86b8bfa30455e22bbb4ec',
    ('4way64k', 'flo52', 'base'):
        '76ff03aee29da03a47beb575f2dfde827100cc465294675ac654416719f79bbb',
    ('4way64k', 'flo52', 'sc'):
        '6729b74cbc3c055de59f1137400118f9127130ee2170aa8dd288908c558724f4',
    ('4way64k', 'flo52', 'tpi'):
        'dd0d9ce0219ca4a492c9683ba2482007753e6e34166120543a193ca6103cf5c5',
    ('4way64k', 'flo52', 'hw'):
        'b33a9aa20e0c9b0db609cf776e897f589f215c0e3596a76176de4b5797af12ab',
    ('4way64k', 'flo52', 'limitless'):
        '8dc70d79a2cfe21061e64c70be0a9b4c3f965fbae831758d724fac9c90b5c2de',
    ('4way64k', 'flo52', 'update'):
        '5ae237a7836e3e1cfedf0283b7ba992886024c410fc857be5accd2b81f6f3a71',
    ('4way64k', 'flo52', 'tardis'):
        '87d3f518f6996fb7ba145c64351c92ae21ea6b369d52a04eaecf43ceaf2a7806',
    ('4way64k', 'flo52', 'snoop'):
        '3c21537fae30169a52df49494c95185b26a3077d0dee2829c3e3703155d70578',
    ('4way64k', 'qcd2', 'base'):
        '7b02189dd4c7bc03efd159081de82e2e0b5f48f2d8891194ebb09d1585c60c58',
    ('4way64k', 'qcd2', 'sc'):
        'a26beb03a66902217e969833811ab4a60e62207494a087c606b19b30b04d3ca7',
    ('4way64k', 'qcd2', 'tpi'):
        'f4c13be23cfeeac4601ee35982d057eab1ac80b6269537f2286a4d085d52a97a',
    ('4way64k', 'qcd2', 'hw'):
        'f0a3e2eaf466b1a8a86e99c43d8eed03251479bce4637fa0f9c08104cd0a9581',
    ('4way64k', 'qcd2', 'limitless'):
        '464432e36042d9282d587751224c1489a6ca9925df5d84c8eff375bb72194297',
    ('4way64k', 'qcd2', 'update'):
        'a170be050dfff4d2f4660b8616d50246509e838af72cbabbb6ebc8464c80e350',
    ('4way64k', 'qcd2', 'tardis'):
        'd12fd60ed443d1d34447ff3c6adc9af4d04c33e1770ebd76a0ba7d3759fc0d4d',
    ('4way64k', 'qcd2', 'snoop'):
        'de728ab7a2835bf89a5cd7f38351c5e928ee2eab643b65f3d5db2034e47bfc75',
    ('4way64k', 'trfd', 'base'):
        '228f12ada178c5982c522066019d54abe2916dc984caf9842c7f0435d3f9ffe8',
    ('4way64k', 'trfd', 'sc'):
        'c9b0852d128a85bc4bd3527582d0dd5d41080625912e4df926a5e9227fd71416',
    ('4way64k', 'trfd', 'tpi'):
        'c145484225eb097ed4dffa46a47d042429dbe4bdbdfc5cc050d1e283de586ccd',
    ('4way64k', 'trfd', 'hw'):
        '1e1a9e552e6fa6e6a82a12395b9e531ac7da96392fd95698574d71f135e4e318',
    ('4way64k', 'trfd', 'limitless'):
        '36c7dc96a106b45db4c46e50c306f881caa1e40fe934068dd90d09b8daa21412',
    ('4way64k', 'trfd', 'update'):
        '7e3a0b64dc8ea1dc08eb9556175830158946722d3d881b658235d6e4c81e9f23',
    ('4way64k', 'trfd', 'tardis'):
        '1c04ea4c52994fc23f7b3f1a1184d6f84a60214c8f0b07712a6516368cb3fb21',
    ('4way64k', 'trfd', 'snoop'):
        '8facb299577f9ac950152cc8563a40792fe97ebdeed827c1e210427f7fd542fb',
    ('4way64k', 'arc2d', 'base'):
        'e1aedc60f000029547bb53501df2e5fc5f15ced4fe1f3483f0650192bb466365',
    ('4way64k', 'arc2d', 'sc'):
        '21fb470e732307bc149421c55942cef1ceac4b5d2a3555a8c9e07084ecd0123d',
    ('4way64k', 'arc2d', 'tpi'):
        '56f382c6f01132c38e4bd5dffd64394e4e7a83e9fffce2e61adea0d752a7d916',
    ('4way64k', 'arc2d', 'hw'):
        'f8e54f65a85f4d9f52c7fbe6561fc1019c31b07c1bee21ef482d70fe12052123',
    ('4way64k', 'arc2d', 'limitless'):
        '46d40cf744ba18be7ab21b364abb2c4dc4563364507d28544596b2f43b314023',
    ('4way64k', 'arc2d', 'update'):
        '126db3beb46bbc7adf45fb9c11a23bf1856e96b041947ebf429f09bd1cc5179c',
    ('4way64k', 'arc2d', 'tardis'):
        'c359423d583ad79bd7880851c14e53e17a14501ebde0f18b9ec948fc9d4a9976',
    ('4way64k', 'arc2d', 'snoop'):
        '3a6617ac7c9b7343d7e5244e2bf99de771464d15c3514f51af910d8485060eac',
    ('seq', 'spec77', 'base'):
        '685962d4d4918b3276bdec13e6be3cee396a4eab988d0f6b88f084e94fa205ae',
    ('seq', 'spec77', 'sc'):
        'e349ba62c2d49ae3e3326903242e02b3b7a7d48a234bfbe724a56144aa3715bd',
    ('seq', 'spec77', 'tpi'):
        'da97eb0fd7a9808af07f82441c8a54902fe05e20807970c5376c33f7591bbc85',
    ('seq', 'spec77', 'hw'):
        'f908859f1d3abf70aab9b5d3801fcddb259496fc4330f49547604909d9daba38',
    ('seq', 'spec77', 'limitless'):
        '29bf3fa35bcea323657c594922b0f2b7dcdcaaf1a16217cfd2f5eccccfaa54f5',
    ('seq', 'spec77', 'update'):
        'd49d322b87cea4b72bee2c7e6647a6ce0edfea5c9838d627b998a10d173036ef',
    ('seq', 'spec77', 'tardis'):
        'b9fc37b371ca1c999b34856d9f01a453354fcb598101b4313cf45dad88363e44',
    ('seq', 'spec77', 'snoop'):
        '376ff54c07741c0c26826e8896270f071a5ba18bdf901fb0d31f40b0d4f56b70',
    ('seq', 'ocean', 'base'):
        'e5f7e24614ece8ea6eb8113568ba961902697da5413d914c761521f01778e908',
    ('seq', 'ocean', 'sc'):
        '5a592f0a6a1888733c5cb0e519372fbc9ecc73f8e23fdf1920fa97d3a8b015e7',
    ('seq', 'ocean', 'tpi'):
        '3b2df482974f24000b4f5de4b1f3ecacad58bd9c294ad958c346acabbfa672f4',
    ('seq', 'ocean', 'hw'):
        '4addf1bc80a9608924676caf53b7ffcec2be2c062b13ef19933d850ca96cbd1b',
    ('seq', 'ocean', 'limitless'):
        'a18b65b3b34ab6c36f23e1dcf46f83b1fd2273a7161cceb4f8fd9e799ba76afe',
    ('seq', 'ocean', 'update'):
        'b85cd432f31ef1d3a52cfad8cf53cef00cc443bbaaea1a35c5abd0156bf61826',
    ('seq', 'ocean', 'tardis'):
        '24814aaa05e8f55b5c6f7b1168d8ee9d2db44c4356b84cfde9992c3582b3b7ef',
    ('seq', 'ocean', 'snoop'):
        '787437704326d84d757265c7e268031d1e941b50a6f68d3b6e1e619a834a6c97',
    ('seq', 'flo52', 'base'):
        'd60cca1d419f831c11e03ace10cb4afaea7b63b4561ac3913bd634cbf4ae5984',
    ('seq', 'flo52', 'sc'):
        '6720edb8cfea6aab0d37a3fa1ec7a90a73a3438c86542124509f8d07104fb8de',
    ('seq', 'flo52', 'tpi'):
        'bfe8a7147dac44270cec541d31b06ca37bc23085bd41b71a54cdafb3bb0ce375',
    ('seq', 'flo52', 'hw'):
        'ae590cfab832f6a61d675b444c9d220dfbf0accbf785a2bb2ac2be7cbd63c047',
    ('seq', 'flo52', 'limitless'):
        '92510c2f25f7e07d592b8163da8760df423ccea1d86e7fb8c64b7f093402b7fb',
    ('seq', 'flo52', 'update'):
        '030d307bd0e04b7e185d732f840b42d25fd422b59ca316853a2570a5e4fdfeb7',
    ('seq', 'flo52', 'tardis'):
        '64c09dbbd64737395ab40ab2c9371c65d95059086f3c8cc73d68cc67771b3244',
    ('seq', 'flo52', 'snoop'):
        '60e7c05e0af528aecd7c66931c0d2d3c245b2bd23cc7cfb2e7d6fa3f3588cf27',
    ('seq', 'qcd2', 'base'):
        'b08924878961fa539f97a58e8eed696cf0fad080d1c86e0bb15eeed9d8621410',
    ('seq', 'qcd2', 'sc'):
        '433c8db027a2df451d48a45d595c5547740a798dbc4135a06f65d452750bf2cc',
    ('seq', 'qcd2', 'tpi'):
        '10003beea1e5f1c47e46fecf5599698d535edd586c0900e85777af444f2c5572',
    ('seq', 'qcd2', 'hw'):
        '842e063c4fafbd7df0148f60897731cfbefc43c7360431e7e8dfc076da21b405',
    ('seq', 'qcd2', 'limitless'):
        '7243a0cc82fa1ec6b0c8b8cccf960b5b4ae6cd69d9134d3cb9da470c54aa8060',
    ('seq', 'qcd2', 'update'):
        '03ced76191eb2a137f418544ab371a4222661e7ad80c8aede68d390803ff5357',
    ('seq', 'qcd2', 'tardis'):
        '8a204459581144a229fc54f6791e57b856492ce9f1d6090f72eff3f7b289af86',
    ('seq', 'qcd2', 'snoop'):
        '7a57952a7f22fa7f2a9774f67c1b9d4d8f39fbce52988690f44d595093928b13',
    ('seq', 'trfd', 'base'):
        'f3099067e4b4f229d1594570506ec37fddfa2eb9ce870e636578b79c4ba1f769',
    ('seq', 'trfd', 'sc'):
        'af3e20d50d403393195bd14af50fa5890f9c36675f08c424b4c260708ac58312',
    ('seq', 'trfd', 'tpi'):
        '35c17e0921cfb42f1a2e476d0f6ed60326c0790e2fb4793416de9a06007060d9',
    ('seq', 'trfd', 'hw'):
        '4f1a7ab68c59c8fef6deb21968db4108a9d4dadaa719ea2c7dd44eaadb5f7200',
    ('seq', 'trfd', 'limitless'):
        'd0900849768baa862663080474e4f5c90c5f31b85dfa2bf1d6b7d9cbcaa2c954',
    ('seq', 'trfd', 'update'):
        '7c86e2055d1f5a568f1151c558b88f72cf8d5c152d3217d17c28a12ca2f6fdce',
    ('seq', 'trfd', 'tardis'):
        '691519730fe09a0f6b047caa4858df6b4434db9b1dec5c5a55aa60149ba0edea',
    ('seq', 'trfd', 'snoop'):
        '36223ad10e5fb4a28e050e537e4e9b0d1c3db87a9b6db72a5244456c1610dafe',
    ('seq', 'arc2d', 'base'):
        '5ead6e09faade712e04b2a9a957dd647746ac084f6786b909d77db254c0f62c7',
    ('seq', 'arc2d', 'sc'):
        '05958e788f5fb944b24f082bd4d0b7c742b469bddd9c667239979f3d02260a3d',
    ('seq', 'arc2d', 'tpi'):
        '582fdc4064ce103d765531143c9df2d44467bb7b34376667163470ec12599922',
    ('seq', 'arc2d', 'hw'):
        '76d4b85125751700a69ec3408a0c216160cc96c5211c903d920035919c700cbb',
    ('seq', 'arc2d', 'limitless'):
        '60a60a9a710abc64effeef4e2676b5ca65b2bb44d865146a81dd259d573b1948',
    ('seq', 'arc2d', 'update'):
        '95b9037ae73a94ee84d96f1e1074912a33281be2c93aba49b841b11e9933700f',
    ('seq', 'arc2d', 'tardis'):
        'f9046866a086ddc26d0985aa63cb7ccfed7492e53366af85185a4c39e76e809e',
    ('seq', 'arc2d', 'snoop'):
        '233359678ad6de79d4c2c0a4396de9e7bdc291853540f54bd1945df13ccd50d8',
    ('dm1k', 'spec77', 'base'):
        '11afd441eff1fe0a1d120346a0d449f2134bd9f7b763bb098bb5a2212a1ccc33',
    ('dm1k', 'spec77', 'sc'):
        '5c8473635864ac41b83f4fb36cffb8c773500c3e7500325fdd379a4d55068f6a',
    ('dm1k', 'spec77', 'tpi'):
        '84315909899fba831abf3b36fc8bb8937d0c8772e69fbf25cf957e85bb5ce509',
    ('dm1k', 'spec77', 'hw'):
        '4afe28b349c62e0febc46f67e1de3e77e7100e2919a7d5de4d5f42fc4b8fbedc',
    ('dm1k', 'spec77', 'limitless'):
        '0a515177495bc95f68ae965f5130625c29babba6c26731544106205efc8875ef',
    ('dm1k', 'spec77', 'update'):
        'f08599f9d174bc80f2fd15f037535542d46cc8fd7223fc6277262ea6b003e283',
    ('dm1k', 'spec77', 'tardis'):
        'e849facc680d3696bb0f2af13d518f09adfc6afe04714f48872f3ef5071d3b9a',
    ('dm1k', 'spec77', 'snoop'):
        'b00fee410fa2895e3165050158d5d17cca2231d1b4cecc00cbfd121d7b990078',
    ('dm1k', 'ocean', 'base'):
        'c5c5450ca7849072181a864d8e9f58cc320ccb8bff9b941fbfbbb016a1ac71da',
    ('dm1k', 'ocean', 'sc'):
        '1cf2535f777f6006d3533c34539f66a420d848e36bd34729a4ce8ce0e4b0d629',
    ('dm1k', 'ocean', 'tpi'):
        '98b91f5dc87d7da48a50ab4a3ba0866249cbc8ee832707da7a2f8c1aaa591bfa',
    ('dm1k', 'ocean', 'hw'):
        '4024c5b644591051fe206201cce19a132737a7b7c53466f227e6a34208dfdf66',
    ('dm1k', 'ocean', 'limitless'):
        '4767b725c8f5da1f604dea2efce7cbfcc0ec87440c639e0e9054888e92b10a59',
    ('dm1k', 'ocean', 'update'):
        'f2ba272617f5613375a9868542bdd91a56977bad7c57c44ada1660e33e115e2e',
    ('dm1k', 'ocean', 'tardis'):
        '6490150de7cba7abca4a860b949fc44e8ab4691acaf29fc4d4cfe8f1524b5dad',
    ('dm1k', 'ocean', 'snoop'):
        'deb87641569cf350bff6f317cc91dcac02a86bf322ab00b6236802ca31a68b01',
    ('dm1k', 'flo52', 'base'):
        '76ff03aee29da03a47beb575f2dfde827100cc465294675ac654416719f79bbb',
    ('dm1k', 'flo52', 'sc'):
        '6729b74cbc3c055de59f1137400118f9127130ee2170aa8dd288908c558724f4',
    ('dm1k', 'flo52', 'tpi'):
        'dd0d9ce0219ca4a492c9683ba2482007753e6e34166120543a193ca6103cf5c5',
    ('dm1k', 'flo52', 'hw'):
        'b33a9aa20e0c9b0db609cf776e897f589f215c0e3596a76176de4b5797af12ab',
    ('dm1k', 'flo52', 'limitless'):
        '8dc70d79a2cfe21061e64c70be0a9b4c3f965fbae831758d724fac9c90b5c2de',
    ('dm1k', 'flo52', 'update'):
        '5ae237a7836e3e1cfedf0283b7ba992886024c410fc857be5accd2b81f6f3a71',
    ('dm1k', 'flo52', 'tardis'):
        '87d3f518f6996fb7ba145c64351c92ae21ea6b369d52a04eaecf43ceaf2a7806',
    ('dm1k', 'flo52', 'snoop'):
        '3c21537fae30169a52df49494c95185b26a3077d0dee2829c3e3703155d70578',
    ('dm1k', 'qcd2', 'base'):
        '7b02189dd4c7bc03efd159081de82e2e0b5f48f2d8891194ebb09d1585c60c58',
    ('dm1k', 'qcd2', 'sc'):
        '9f000cc1d11d0c84503cd315d85a107049ff0c65daa7bd5bf3f44e522d337f73',
    ('dm1k', 'qcd2', 'tpi'):
        '9bc0e7e793d62a468aefe3f53936ca351368199748866330b5f5c0c0de2a8388',
    ('dm1k', 'qcd2', 'hw'):
        '4135b23b7227e1fbd0535031983c661e63641215097e9f336a747c190a576b0e',
    ('dm1k', 'qcd2', 'limitless'):
        '60624bcae612c7a88de93e7e56ef564111ab628919c2589b72bb557e66fe2b8c',
    ('dm1k', 'qcd2', 'update'):
        '9ee9ec33857854d9df160cbfd5d88471d5ea3e13e093e62edebd7002af3a1cec',
    ('dm1k', 'qcd2', 'tardis'):
        'fccdd568caf15bc0b6a344546ff5767d0cc59cd268e7188b7cb37845db80aba7',
    ('dm1k', 'qcd2', 'snoop'):
        '78971af4a8fc6ed4db3bf6f53e0b8a7ca2986d757dd1a7c7330711fd1e84729e',
    ('dm1k', 'trfd', 'base'):
        '228f12ada178c5982c522066019d54abe2916dc984caf9842c7f0435d3f9ffe8',
    ('dm1k', 'trfd', 'sc'):
        'fc5b5fa4d6426a01444269f77969de5d995e6dc0419ecc7b2aae7338c8bce595',
    ('dm1k', 'trfd', 'tpi'):
        '90c0b6e89cbf1bdd6427a5d991ecea56003d2df819e7b80bb59e568f80d88e78',
    ('dm1k', 'trfd', 'hw'):
        '4bfb92f2076933ed24a6bf89a0de0078a67909dbacb6a0faaa8e33ed7e2afe0c',
    ('dm1k', 'trfd', 'limitless'):
        'ed72a62878402f6885e2e078981708bf589debffb0d52e410f6424f7ac0dae7f',
    ('dm1k', 'trfd', 'update'):
        'eb760f5e4e7386721b098fea1b37fdaa5f32044124fa4c70f3cac047a0d2b898',
    ('dm1k', 'trfd', 'tardis'):
        'b2d7f33324c1c12aa695b15badf108cc9f1124c10ae75130b38240b4f0c9ac87',
    ('dm1k', 'trfd', 'snoop'):
        '3c47a0261afede9be6bd0d3f5ff86c530f871740a626ce9ea7795607f21b3ab0',
    ('dm1k', 'arc2d', 'base'):
        'e1aedc60f000029547bb53501df2e5fc5f15ced4fe1f3483f0650192bb466365',
    ('dm1k', 'arc2d', 'sc'):
        'bdc632bcd32a547cd6a7e84becbcc785ea5daa7eec98910a92d9a0d5bc471b27',
    ('dm1k', 'arc2d', 'tpi'):
        '7bdd137cb901125ed7210b843d59277c434e32c02e4f800ace22a98ed18e1ab1',
    ('dm1k', 'arc2d', 'hw'):
        'a9c1aff58d3afec358ba5abebb41df46fe2c086c5d8ed95328f354a554293d7b',
    ('dm1k', 'arc2d', 'limitless'):
        '82099e75fc9e05424491bcf37142ad40a3ce1fd99ac78af0121e30cad264e544',
    ('dm1k', 'arc2d', 'update'):
        '4e6306a98c5f537f2f33234dc69cae40141a8405ac7e750079e4d40b64579840',
    ('dm1k', 'arc2d', 'tardis'):
        '6806e392385fc84927d548534449ebf42ee68626c24f10d07f2802ab4585e6e9',
    ('dm1k', 'arc2d', 'snoop'):
        '2c1c172eb315b11c2d149e6ae5e4404311d3a809192d1fa60f934e93ec90fbe8',
}


def _measure(workload, scheme):
    run = prepare(build_workload(workload, size="small"), MACHINE)
    r = simulate(run, scheme)
    return (r.exec_cycles, r.read_misses, r.total_traffic)


@functools.lru_cache(maxsize=None)
def _prepared(workload):
    # Traces depend only on n_procs/schedule, shared by every machine here.
    return prepare(build_workload(workload, size="small"), _RECORDED)


def _digest(machine_name, workload, scheme, **fields):
    machine = MACHINES[machine_name]
    if fields:
        machine = machine.with_(**fields)
    result = simulate(_prepared(workload), scheme, machine)
    canonical = json.dumps(
        {"result": result.to_dict(),
         "epochs": [dataclasses.astuple(rec) for rec in result.epoch_records]},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _grid():
    return [(m, w, s) for m in MACHINES for w in workload_names()
            for s in SCHEME_NAMES]


@pytest.mark.parametrize("workload,scheme", sorted(GOLDEN))
def test_golden(workload, scheme):
    assert _measure(workload, scheme) == GOLDEN[(workload, scheme)], (
        "deterministic result drifted; if the model change is intentional, "
        "regenerate the pins with `python tests/test_golden.py`")


def test_digest_grid_is_complete():
    assert sorted(DIGESTS) == sorted(_grid())


@pytest.mark.parametrize("machine,workload,scheme", _grid())
def test_golden_digest(machine, workload, scheme):
    assert _digest(machine, workload, scheme) == DIGESTS[
        (machine, workload, scheme)], (
        "deterministic result drifted; if the model change is intentional, "
        "regenerate the pins with `python tests/test_golden.py`")


@pytest.mark.parametrize("machine,workload,scheme",
                         [key for key in _grid() if key[2] != "tardis"])
def test_golden_digest_window_by_window(machine, workload, scheme,
                                        monkeypatch):
    """The same digests on the fast engine with every pre-apply refused.

    Each epoch the planner clears then replays all of its events
    through the heap, as when pre-apply poisons every set: planning,
    which reads directory and cache state, must leave no trace in the
    results.  Tardis has no kernel, so its epochs never reach the
    planner."""
    monkeypatch.setattr(FastEngine, "_preapply_epoch", lambda *args: False)
    assert _digest(machine, workload, scheme, engine="fast") == DIGESTS[
        (machine, workload, scheme)]


def test_fig18_migration_digest():
    """fig18's migrated DOALLs and lock-safe splits, pinned end to end.

    Only the per-iteration interpreter generates migrated traces, and
    none of the digests above has migration on.  The experiment's
    canonical ``to_dict()`` must hash to the digest the repository
    benchmark pins (``perfbench/golden.json``), under whichever engine
    ``REPRO_ENGINE`` selects."""
    from repro.experiments import run_experiment

    root = pathlib.Path(__file__).resolve().parents[1]
    with open(root / "perfbench" / "golden.json") as handle:
        golden = json.load(handle)["experiments/fig18_migration"]
    result = run_experiment("fig18_migration", size="small")
    text = json.dumps(result.to_dict(), sort_keys=True,
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == golden


if __name__ == "__main__":
    print("GOLDEN = {")
    for workload, scheme in sorted(GOLDEN):
        values = _measure(workload, scheme)
        print(f'    ("{workload}", "{scheme}"): {values},')
    print("}")
    print()
    print("DIGESTS = {")
    for key in _grid():
        print(f"    {key!r}:\n        {_digest(*key)!r},")
    print("}")
